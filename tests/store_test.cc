#include <gtest/gtest.h>

#include <vector>

#include "store/kv_store.h"
#include "store/lock_table.h"
#include "store/prepared_set.h"

namespace natto::store {
namespace {

// ---------------------------------------------------------------------------
// KvStore
// ---------------------------------------------------------------------------

TEST(KvStoreTest, UnwrittenKeyReadsDefaultAtVersionZero) {
  KvStore kv([](Key k) { return static_cast<Value>(k * 10); });
  VersionedValue v = kv.Get(7);
  EXPECT_EQ(v.value, 70);
  EXPECT_EQ(v.version, 0u);
  EXPECT_EQ(kv.materialized_size(), 0u);
}

TEST(KvStoreTest, ApplyBumpsVersion) {
  KvStore kv;
  kv.Apply(1, 100, /*writer=*/5);
  VersionedValue v = kv.Get(1);
  EXPECT_EQ(v.value, 100);
  EXPECT_EQ(v.version, 1u);
  EXPECT_EQ(v.writer, 5u);
  kv.Apply(1, 200, 6);
  EXPECT_EQ(kv.Get(1).version, 2u);
  EXPECT_EQ(kv.Get(1).value, 200);
}

TEST(KvStoreTest, NullDefaultIsZero) {
  KvStore kv;
  EXPECT_EQ(kv.Get(123).value, 0);
}

TEST(KvStoreTest, MaterializedSizeTracksWriteFootprintNotKeyspace) {
  // The paper's datasets (1M keys) are lazy: only written keys take memory.
  KvStore kv([](Key k) { return static_cast<Value>(k); });
  EXPECT_EQ(kv.materialized_size(), 0u);
  // Reads never materialize, no matter how many distinct keys are touched.
  for (Key k = 0; k < 1000; ++k) kv.Get(k);
  EXPECT_EQ(kv.materialized_size(), 0u);
  kv.Apply(10, 1, /*writer=*/1);
  kv.Apply(20, 2, /*writer=*/1);
  EXPECT_EQ(kv.materialized_size(), 2u);
  // Rewriting a materialized key must not grow the footprint.
  kv.Apply(10, 3, /*writer=*/2);
  EXPECT_EQ(kv.materialized_size(), 2u);
}

TEST(KvStoreTest, FirstApplyShadowsDefaultAndStartsAtVersionOne) {
  KvStore kv([](Key k) { return static_cast<Value>(k * 10); });
  // Reading first must not pin the default: the later write wins.
  EXPECT_EQ(kv.Get(4).value, 40);
  kv.Apply(4, 7, /*writer=*/99);
  VersionedValue v = kv.Get(4);
  EXPECT_EQ(v.value, 7);
  EXPECT_EQ(v.version, 1u);  // defaults are version 0; first write is 1
  EXPECT_EQ(v.writer, 99u);
  // Neighbouring unwritten keys still read their defaults.
  EXPECT_EQ(kv.Get(5).value, 50);
  EXPECT_EQ(kv.Get(5).version, 0u);
}

TEST(KvStoreTest, WriterAttributionFollowsLatestApply) {
  KvStore kv;
  kv.Apply(1, 10, /*writer=*/3);
  kv.Apply(1, 20, /*writer=*/8);
  kv.Apply(1, 30, /*writer=*/5);
  VersionedValue v = kv.Get(1);
  EXPECT_EQ(v.version, 3u);
  EXPECT_EQ(v.writer, 5u);  // OCC validation pins blame on the last writer
  EXPECT_EQ(v.value, 30);
}

TEST(KvStoreTest, MaterializedKeyNoLongerConsultsDefaultFn) {
  int default_calls = 0;
  KvStore kv([&default_calls](Key) {
    ++default_calls;
    return Value{77};
  });
  kv.Apply(9, 1, /*writer=*/1);
  kv.Get(9);
  EXPECT_EQ(default_calls, 0);  // hot keys bypass the lazy path entirely
  kv.Get(10);
  EXPECT_EQ(default_calls, 1);
}

// ---------------------------------------------------------------------------
// PreparedSet
// ---------------------------------------------------------------------------

TEST(PreparedSetTest, ReadReadDoesNotConflict) {
  PreparedSet p;
  p.Add(1, /*reads=*/{10}, /*writes=*/{});
  EXPECT_FALSE(p.HasConflict({10}, {}));
}

TEST(PreparedSetTest, ReadWriteConflicts) {
  PreparedSet p;
  p.Add(1, {10}, {});
  EXPECT_TRUE(p.HasConflict({}, {10}));  // new write vs prepared read
  PreparedSet q;
  q.Add(1, {}, {10});
  EXPECT_TRUE(q.HasConflict({10}, {}));  // new read vs prepared write
}

TEST(PreparedSetTest, WriteWriteConflicts) {
  PreparedSet p;
  p.Add(1, {}, {10});
  EXPECT_TRUE(p.HasConflict({}, {10}));
}

TEST(PreparedSetTest, RemoveClearsFootprint) {
  PreparedSet p;
  p.Add(1, {10}, {11});
  p.Remove(1);
  EXPECT_FALSE(p.HasConflict({11}, {10, 11}));
  EXPECT_EQ(p.size(), 0u);
}

TEST(PreparedSetTest, ConflictingListsAllAndDeduplicates) {
  PreparedSet p;
  p.Add(1, {}, {10, 11});
  p.Add(2, {11}, {});
  auto c = p.Conflicting({10}, {11});
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c[0], 1u);
  EXPECT_EQ(c[1], 2u);
}

TEST(PreparedSetTest, RepeatedKeyInFootprintLeavesNoResidue) {
  PreparedSet p;
  p.Add(5, /*reads=*/{10, 10, 12}, /*writes=*/{11, 11});
  p.Add(3, {}, {10});
  // Each transaction is listed once however often its footprint names the
  // key; the result stays sorted.
  EXPECT_EQ(p.Conflicting({11}, {10}), (std::vector<TxnId>{3, 5}));
  p.Remove(5);
  // Only txn 3's write on key 10 is left: no residue on 11 or 12, and key
  // 10 no longer lists txn 5 as a reader.
  EXPECT_FALSE(p.HasConflict({11, 12}, {11, 12}));
  EXPECT_EQ(p.Conflicting({10}, {10, 11, 12}), (std::vector<TxnId>{3}));
  p.Remove(3);
  EXPECT_FALSE(p.HasConflict({}, {10, 11, 12}));
  EXPECT_EQ(p.size(), 0u);
}

TEST(PreparedSetTest, KeyBothReadAndWrittenByOneTxn) {
  PreparedSet p;
  p.Add(7, /*reads=*/{20}, /*writes=*/{20});
  p.Add(4, {20}, {});
  p.Add(9, {}, {21, 20});
  EXPECT_TRUE(p.HasConflict({20}, {}));
  // Txn 7 appears as both reader and writer of key 20: listed once.
  EXPECT_EQ(p.Conflicting({21}, {20}), (std::vector<TxnId>{4, 7, 9}));
  p.Remove(7);
  EXPECT_EQ(p.Conflicting({}, {20}), (std::vector<TxnId>{4, 9}));
  p.Remove(9);
  // Txn 4's read is all that remains: reads pass, writes conflict.
  EXPECT_FALSE(p.HasConflict({20, 21}, {21}));
  EXPECT_TRUE(p.HasConflict({}, {20}));
  p.Remove(4);
  EXPECT_FALSE(p.HasConflict({}, {20, 21}));
  EXPECT_TRUE(p.Conflicting({20, 21}, {20, 21}).empty());
  EXPECT_EQ(p.size(), 0u);
}

TEST(PreparedSetTest, RemoveUnknownIsNoop) {
  PreparedSet p;
  p.Remove(42);
  EXPECT_EQ(p.size(), 0u);
}

// ---------------------------------------------------------------------------
// LockTable
// ---------------------------------------------------------------------------

TEST(LockTableTest, SharedLocksCoexist) {
  LockTable lt;
  EXPECT_TRUE(lt.Acquire(1, 100, LockMode::kShared, 0, 0, nullptr).granted);
  EXPECT_TRUE(lt.Acquire(1, 101, LockMode::kShared, 0, 0, nullptr).granted);
  EXPECT_EQ(lt.Holders(1).size(), 2u);
}

TEST(LockTableTest, ExclusiveExcludes) {
  LockTable lt;
  EXPECT_TRUE(lt.Acquire(1, 100, LockMode::kExclusive, 0, 0, nullptr).granted);
  bool granted_late = false;
  auto res = lt.Acquire(1, 101, LockMode::kExclusive, 0, 1,
                        [&]() { granted_late = true; });
  EXPECT_FALSE(res.granted);
  ASSERT_EQ(res.blockers.size(), 1u);
  EXPECT_EQ(res.blockers[0], 100u);
  lt.Release(1, 100);
  EXPECT_TRUE(granted_late);
}

TEST(LockTableTest, ReacquireIsIdempotent) {
  LockTable lt;
  EXPECT_TRUE(lt.Acquire(1, 100, LockMode::kExclusive, 0, 0, nullptr).granted);
  EXPECT_TRUE(lt.Acquire(1, 100, LockMode::kShared, 0, 0, nullptr).granted);
  EXPECT_TRUE(lt.Acquire(1, 100, LockMode::kExclusive, 0, 0, nullptr).granted);
}

TEST(LockTableTest, UpgradeWhenSoleHolder) {
  LockTable lt;
  EXPECT_TRUE(lt.Acquire(1, 100, LockMode::kShared, 0, 0, nullptr).granted);
  EXPECT_TRUE(lt.Acquire(1, 100, LockMode::kExclusive, 0, 0, nullptr).granted);
  EXPECT_EQ(lt.Holders(1)[0].mode, LockMode::kExclusive);
}

TEST(LockTableTest, UpgradeWaitsForOtherSharers) {
  LockTable lt;
  EXPECT_TRUE(lt.Acquire(1, 100, LockMode::kShared, 0, 0, nullptr).granted);
  EXPECT_TRUE(lt.Acquire(1, 101, LockMode::kShared, 0, 0, nullptr).granted);
  bool upgraded = false;
  auto res = lt.Acquire(1, 100, LockMode::kExclusive, 0, 0,
                        [&]() { upgraded = true; });
  EXPECT_FALSE(res.granted);
  lt.Release(1, 101);
  EXPECT_TRUE(upgraded);
  EXPECT_EQ(lt.Holders(1)[0].mode, LockMode::kExclusive);
}

TEST(LockTableTest, FifoGrantOrderWithinPriority) {
  LockTable lt;
  EXPECT_TRUE(lt.Acquire(1, 100, LockMode::kExclusive, 0, 0, nullptr).granted);
  std::vector<int> order;
  lt.Acquire(1, 101, LockMode::kExclusive, 0, 1, [&]() { order.push_back(101); });
  lt.Acquire(1, 102, LockMode::kExclusive, 0, 2, [&]() { order.push_back(102); });
  lt.Release(1, 100);
  ASSERT_EQ(order.size(), 1u);
  EXPECT_EQ(order[0], 101);
  lt.Release(1, 101);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[1], 102);
}

TEST(LockTableTest, HighPriorityWaiterOvertakesLow) {
  LockTable lt;
  EXPECT_TRUE(lt.Acquire(1, 100, LockMode::kExclusive, 0, 0, nullptr).granted);
  std::vector<int> order;
  lt.Acquire(1, 101, LockMode::kExclusive, /*priority=*/0, 1,
             [&]() { order.push_back(101); });
  lt.Acquire(1, 102, LockMode::kExclusive, /*priority=*/1, 2,
             [&]() { order.push_back(102); });
  lt.Release(1, 100);
  ASSERT_FALSE(order.empty());
  EXPECT_EQ(order[0], 102);  // high priority jumped the queue
}

TEST(LockTableTest, HighPriorityRequestBypassesLowWaiters) {
  LockTable lt;
  // Shared holder; a low-priority X waiter queues; a high-priority S request
  // should still be granted immediately (compatible with the holder, and
  // only lower-priority waiters queue ahead).
  EXPECT_TRUE(lt.Acquire(1, 100, LockMode::kShared, 0, 0, nullptr).granted);
  lt.Acquire(1, 101, LockMode::kExclusive, 0, 1, nullptr);
  auto res = lt.Acquire(1, 102, LockMode::kShared, 1, 2, nullptr);
  EXPECT_TRUE(res.granted);
}

TEST(LockTableTest, SamePriorityRequestQueuesBehindWaiters) {
  LockTable lt;
  EXPECT_TRUE(lt.Acquire(1, 100, LockMode::kShared, 0, 0, nullptr).granted);
  lt.Acquire(1, 101, LockMode::kExclusive, 0, 1, nullptr);
  // A same-priority S request must not starve the queued X waiter.
  auto res = lt.Acquire(1, 102, LockMode::kShared, 0, 2, nullptr);
  EXPECT_FALSE(res.granted);
}

TEST(LockTableTest, ReleaseAllFreesEverything) {
  LockTable lt;
  lt.Acquire(1, 100, LockMode::kExclusive, 0, 0, nullptr);
  lt.Acquire(2, 100, LockMode::kShared, 0, 0, nullptr);
  bool granted = false;
  lt.Acquire(1, 101, LockMode::kExclusive, 0, 1, [&]() { granted = true; });
  lt.ReleaseAll(100);
  EXPECT_FALSE(lt.HoldsAny(100));
  EXPECT_TRUE(granted);
}

TEST(LockTableTest, CancelWaitUnblocksQueue) {
  LockTable lt;
  lt.Acquire(1, 100, LockMode::kShared, 0, 0, nullptr);
  lt.Acquire(1, 101, LockMode::kShared, 0, 0, nullptr);
  // 100's upgrade blocks the head of the queue.
  lt.Acquire(1, 100, LockMode::kExclusive, 0, 0, nullptr);
  bool granted = false;
  lt.Acquire(1, 102, LockMode::kShared, 0, 1, [&]() { granted = true; });
  EXPECT_FALSE(granted);
  lt.CancelWait(1, 100);
  EXPECT_TRUE(granted);
}

TEST(LockTableTest, IsWaitingTracksState) {
  LockTable lt;
  lt.Acquire(1, 100, LockMode::kExclusive, 0, 0, nullptr);
  EXPECT_FALSE(lt.IsWaiting(101));
  lt.Acquire(1, 101, LockMode::kExclusive, 0, 1, nullptr);
  EXPECT_TRUE(lt.IsWaiting(101));
  lt.Release(1, 100);
  EXPECT_FALSE(lt.IsWaiting(101));
  EXPECT_TRUE(lt.HoldsAny(101));
}

TEST(LockTableTest, EmptyKeyStateIsCleanedUp) {
  LockTable lt;
  lt.Acquire(1, 100, LockMode::kExclusive, 0, 0, nullptr);
  lt.Release(1, 100);
  EXPECT_EQ(lt.num_locked_keys(), 0u);
}

}  // namespace
}  // namespace natto::store
