#include <gtest/gtest.h>

#include "engine_test_util.h"
#include "natto/natto.h"

namespace natto::core {
namespace {

using testutil::MakeCluster;
using testutil::ScheduleTxn;

// All scenario timings reference the Azure matrix: sites VA(0), WA(1),
// PR(2), NSW(3), SG(4); partition p's leader lives at site p.

TEST(NattoOptionsTest, PresetsAreCumulative) {
  EXPECT_FALSE(NattoOptions::TsOnly().lecsf);
  EXPECT_TRUE(NattoOptions::Lecsf().lecsf);
  EXPECT_FALSE(NattoOptions::Lecsf().priority_abort);
  EXPECT_TRUE(NattoOptions::Pa().priority_abort);
  EXPECT_FALSE(NattoOptions::Pa().conditional_prepare);
  EXPECT_TRUE(NattoOptions::Cp().conditional_prepare);
  EXPECT_FALSE(NattoOptions::Cp().recsf);
  EXPECT_TRUE(NattoOptions::Recsf().recsf);
}

TEST(NattoTest, EngineNamesFollowAblation) {
  auto cluster = MakeCluster();
  EXPECT_EQ(NattoEngine(cluster.get(), NattoOptions::TsOnly()).name(),
            "Natto-TS");
  EXPECT_EQ(NattoEngine(cluster.get(), NattoOptions::Recsf()).name(),
            "Natto-RECSF");
}

TEST(NattoTest, RefreshEstimatesGuardsAgainstDuplicateLoops) {
  auto cluster = MakeCluster();
  NattoEngine engine(cluster.get(), NattoOptions::Recsf());
  NattoGateway* gw = engine.gateway_at(0);
  // The engine constructor already started the refresh loop. Regression:
  // a second (and third) call used to spawn extra self-rescheduling loops,
  // doubling the fetch rate forever; now they are no-ops.
  gw->RefreshEstimates();
  gw->RefreshEstimates();
  cluster->simulator()->RunUntil(Seconds(1));
  // One loop at the default 100 ms period: the initial fetch plus ~10
  // rescheduled ones. Duplicate loops would have produced ~2-3x this.
  EXPECT_GE(gw->refresh_fetches(), 10u);
  EXPECT_LE(gw->refresh_fetches(), 12u);
}

TEST(NattoTest, SingleTxnCommitsAtTimestamp) {
  auto cluster = MakeCluster();
  NattoEngine engine(cluster.get(), NattoOptions::Recsf());
  // Warm the proxies up first (Sec 4).
  auto probe = ScheduleTxn(cluster.get(), &engine, Seconds(2), MakeTxnId(1, 1),
                           txn::Priority::kHigh, {1, 4}, {1, 4}, 0);
  cluster->simulator()->RunUntil(Seconds(6));
  ASSERT_TRUE(probe->committed());
  // The execution timestamp is one estimated one-way to SG (107 ms); total
  // completion stays within ~2 overlapped WAN round trips.
  EXPECT_GE(probe->latency_ms(), 214.0);
  EXPECT_LE(probe->latency_ms(), 600.0);
  EXPECT_EQ(engine.DebugValue(1), 1);
  EXPECT_EQ(engine.DebugValue(4), 1);
}

TEST(NattoTest, NearbyServerDefersProcessingUntilTimestamp) {
  auto cluster = MakeCluster();
  NattoEngine engine(cluster.get(), NattoOptions::Recsf());
  // Keys only on partition 1 (WA) issued from WA: even though the server is
  // local, the txn must still complete with sane latency (ts == local now +
  // local estimate, tiny).
  auto local = ScheduleTxn(cluster.get(), &engine, Seconds(2), MakeTxnId(1, 1),
                           txn::Priority::kLow, {1}, {1}, 1);
  cluster->simulator()->RunUntil(Seconds(6));
  ASSERT_TRUE(local->committed());
  // Dominated by prepare replication (WA->PR, 136 ms RTT), not the WAN.
  EXPECT_LE(local->latency_ms(), 400.0);
}

TEST(NattoTest, SequentialConflictingTxnsObserveEachOther) {
  auto cluster = MakeCluster();
  NattoEngine engine(cluster.get(), NattoOptions::Recsf());
  auto p1 = ScheduleTxn(cluster.get(), &engine, Seconds(2), MakeTxnId(1, 1),
                        txn::Priority::kLow, {2}, {2}, 0);
  auto p2 = ScheduleTxn(cluster.get(), &engine, Seconds(4), MakeTxnId(1, 2),
                        txn::Priority::kHigh, {2}, {2}, 0);
  cluster->simulator()->RunUntil(Seconds(8));
  ASSERT_TRUE(p1->committed());
  ASSERT_TRUE(p2->committed());
  EXPECT_EQ(p2->result->reads[0].value, 1);
  EXPECT_EQ(engine.DebugValue(2), 2);
}

// --- Priority abort (Fig 3) -------------------------------------------------

TEST(NattoTest, PriorityAbortClearsQueuedLowTxn) {
  auto cluster = MakeCluster();
  NattoEngine engine(cluster.get(), NattoOptions::Pa());
  // Low from VA on {1,4}: ts = +107 ms (one-way to SG); it reaches WA at
  // +33.5 ms and buffers. High from WA on {1,4} issued 40 ms later conflicts
  // with the queued low at WA -> priority abort.
  auto low = ScheduleTxn(cluster.get(), &engine, Seconds(2), MakeTxnId(1, 1),
                         txn::Priority::kLow, {1, 4}, {1, 4}, 0);
  auto high = ScheduleTxn(cluster.get(), &engine, Seconds(2) + Millis(40),
                          MakeTxnId(2, 1), txn::Priority::kHigh, {1, 4},
                          {1, 4}, 1);
  cluster->simulator()->RunUntil(Seconds(8));
  ASSERT_TRUE(low->result.has_value());
  ASSERT_TRUE(high->result.has_value());
  EXPECT_TRUE(high->committed());
  EXPECT_TRUE(low->aborted());
  EXPECT_GE(engine.TotalStats().priority_aborts, 1u);
  EXPECT_EQ(engine.DebugValue(1), 1);  // only the high one applied
}

TEST(NattoTest, WithoutPaHighWaitsAndBothCommit) {
  auto cluster = MakeCluster();
  NattoEngine engine(cluster.get(), NattoOptions::Lecsf());  // PA off
  auto low = ScheduleTxn(cluster.get(), &engine, Seconds(2), MakeTxnId(1, 1),
                         txn::Priority::kLow, {1, 4}, {1, 4}, 0);
  auto high = ScheduleTxn(cluster.get(), &engine, Seconds(2) + Millis(40),
                          MakeTxnId(2, 1), txn::Priority::kHigh, {1, 4},
                          {1, 4}, 1);
  cluster->simulator()->RunUntil(Seconds(8));
  ASSERT_TRUE(low->result.has_value());
  ASSERT_TRUE(high->result.has_value());
  EXPECT_TRUE(low->committed());
  EXPECT_TRUE(high->committed());
  EXPECT_EQ(engine.TotalStats().priority_aborts, 0u);
  // The high transaction waited for the low one's full commit.
  EXPECT_EQ(high->result->reads[0].value, 1);
  EXPECT_EQ(engine.DebugValue(1), 2);
}

TEST(NattoTest, PaSuppressedWhenLowFinishesInTime) {
  auto cluster = MakeCluster();
  NattoOptions opts = NattoOptions::Pa();
  opts.pa_completion_estimate = true;
  NattoEngine engine(cluster.get(), opts);
  // Low is local-ish and early: it completes long before the distant high
  // transaction's execution timestamp, so the abort is suppressed.
  auto low = ScheduleTxn(cluster.get(), &engine, Seconds(2), MakeTxnId(1, 1),
                         txn::Priority::kLow, {1}, {1}, 1);
  // High from PR reads {1,3}: ts = +117 ms (PR->NSW); it reaches WA at
  // +68 ms, while the low local txn (ts ~ +1 ms) is long prepared; no
  // conflict in the queue remains, so no priority abort should fire.
  auto high = ScheduleTxn(cluster.get(), &engine, Seconds(2) + Millis(1),
                          MakeTxnId(2, 1), txn::Priority::kHigh, {1, 3},
                          {1, 3}, 2);
  cluster->simulator()->RunUntil(Seconds(8));
  ASSERT_TRUE(low->result.has_value());
  ASSERT_TRUE(high->result.has_value());
  EXPECT_TRUE(low->committed());
  EXPECT_TRUE(high->committed());
  EXPECT_EQ(engine.TotalStats().priority_aborts, 0u);
}

// --- Conditional prepare (Fig 4) --------------------------------------------

TEST(NattoTest, ConditionalPrepareAfterRemotePriorityAbort) {
  auto cluster = MakeCluster();
  NattoEngine engine(cluster.get(), NattoOptions::Cp());
  // Low from VA on {1,2}: ts = +40 ms (one-way VA->PR); prepares at PR at
  // +40 ms, still queued at WA until +40 ms.
  auto low = ScheduleTxn(cluster.get(), &engine, Seconds(2), MakeTxnId(1, 1),
                         txn::Priority::kLow, {1, 2}, {1, 2}, 0);
  // High from WA on {1,2} 5 ms later: arrives at WA at +5.5 ms (< low's ts
  // -> priority abort there), and at PR at +73 ms where low is already
  // prepared -> conditional prepare.
  auto high = ScheduleTxn(cluster.get(), &engine, Seconds(2) + Millis(5),
                          MakeTxnId(2, 1), txn::Priority::kHigh, {1, 2},
                          {1, 2}, 1);
  cluster->simulator()->RunUntil(Seconds(8));
  ASSERT_TRUE(low->result.has_value());
  ASSERT_TRUE(high->result.has_value());
  EXPECT_TRUE(low->aborted());
  EXPECT_TRUE(high->committed());
  NattoServer::Stats stats = engine.TotalStats();
  EXPECT_GE(stats.priority_aborts, 1u);
  EXPECT_GE(stats.conditional_prepares, 1u);
  EXPECT_GE(stats.cp_satisfied, 1u);
  EXPECT_EQ(stats.cp_failed, 0u);
  // The high transaction read pre-low state everywhere.
  for (const auto& r : high->result->reads) EXPECT_EQ(r.value, 0);
  EXPECT_EQ(engine.DebugValue(1), 1);
  EXPECT_EQ(engine.DebugValue(2), 1);
}

TEST(NattoTest, WithoutCpHighWaitsForAbortAcknowledgement) {
  auto cluster = MakeCluster();
  NattoEngine engine(cluster.get(), NattoOptions::Pa());  // CP off
  auto low = ScheduleTxn(cluster.get(), &engine, Seconds(2), MakeTxnId(1, 1),
                         txn::Priority::kLow, {1, 2}, {1, 2}, 0);
  auto high = ScheduleTxn(cluster.get(), &engine, Seconds(2) + Millis(5),
                          MakeTxnId(2, 1), txn::Priority::kHigh, {1, 2},
                          {1, 2}, 1);
  cluster->simulator()->RunUntil(Seconds(8));
  ASSERT_TRUE(high->result.has_value());
  EXPECT_TRUE(high->committed());
  EXPECT_EQ(engine.TotalStats().conditional_prepares, 0u);
}

TEST(NattoTest, CpIsFasterThanWaiting) {
  double with_cp = 0, without_cp = 0;
  for (bool cp : {true, false}) {
    auto cluster = MakeCluster();
    NattoEngine engine(cluster.get(),
                       cp ? NattoOptions::Cp() : NattoOptions::Pa());
    ScheduleTxn(cluster.get(), &engine, Seconds(2), MakeTxnId(1, 1),
                txn::Priority::kLow, {1, 2}, {1, 2}, 0);
    auto high = ScheduleTxn(cluster.get(), &engine, Seconds(2) + Millis(5),
                            MakeTxnId(2, 1), txn::Priority::kHigh, {1, 2},
                            {1, 2}, 1);
    cluster->simulator()->RunUntil(Seconds(8));
    ASSERT_TRUE(high->committed());
    (cp ? with_cp : without_cp) = high->latency_ms();
  }
  EXPECT_LT(with_cp, without_cp);
}

// --- Several conditional prepares on one blocker ----------------------------

// Drives partition 1's server (leader at WA) directly. Low transaction L
// prepares keys {1, 6} here and also writes key 2 on partition 2. Two high
// transactions each conflict with L on one local key (H1 on 1, H2 on 6) and
// on key 2, where they are estimated to reach partition 2 before L's
// timestamp, so both are conditionally prepared on L here.
class MultiCpTest : public ::testing::Test {
 protected:
  static NattoOptions Options() {
    NattoOptions o = NattoOptions::Cp();
    o.pa_completion_estimate = false;
    return o;
  }

  void SetUp() override {
    cluster_->simulator()->RunUntil(Seconds(1));
    Prepare(kLow, txn::Priority::kLow, {1, 6, 2}, 0);
    ASSERT_TRUE(server_->prepared().Contains(kLow));
    Prepare(kHigh1, txn::Priority::kHigh, {1, 2}, low_ts_ - Millis(1));
    Prepare(kHigh2, txn::Priority::kHigh, {6, 2}, low_ts_ - Millis(1));
    ASSERT_EQ(server_->stats().conditional_prepares, 2u);
    ASSERT_TRUE(server_->prepared().Contains(kHigh1));
    ASSERT_TRUE(server_->prepared().Contains(kHigh2));
  }

  /// Hands `id` to the server with a timestamp 1 ms ahead and runs past it.
  /// `arrival_at_2` is the estimated arrival at partition 2 (0 = the ts).
  void Prepare(TxnId id, txn::Priority priority, std::vector<Key> keys,
               SimTime arrival_at_2) {
    NattoWireTxn w;
    w.id = id;
    w.priority = priority;
    w.read_set = keys;
    w.write_set = keys;
    w.ts = cluster_->simulator()->Now() + Millis(1);
    w.est_arrivals = {{1, w.ts}, {2, arrival_at_2 > 0 ? arrival_at_2 : w.ts}};
    w.origin_site = 1;
    if (id == kLow) low_ts_ = w.ts;
    server_->HandleReadPrepare(w);
    cluster_->simulator()->RunUntil(w.ts + Millis(10));
  }

  uint64_t MessagesSent() { return cluster_->transport()->messages_sent(); }

  static constexpr TxnId kLow = MakeTxnId(1, 1);
  static constexpr TxnId kHigh1 = MakeTxnId(2, 1);
  static constexpr TxnId kHigh2 = MakeTxnId(3, 1);

  std::unique_ptr<txn::Cluster> cluster_ = MakeCluster();
  NattoEngine engine_{cluster_.get(), Options()};
  NattoServer* server_ = engine_.server(1);
  SimTime low_ts_ = 0;
};

TEST_F(MultiCpTest, LowAbortSatisfiesEveryConditionalPrepare) {
  const uint64_t before = MessagesSent();
  server_->HandleAbort(kLow);
  // One resolution message per CP, nothing else.
  EXPECT_EQ(MessagesSent() - before, 2u);
  NattoServer::Stats s = server_->stats();
  EXPECT_EQ(s.cp_satisfied, 2u);
  EXPECT_EQ(s.cp_failed, 0u);
  EXPECT_TRUE(server_->prepared().Contains(kHigh1));
  EXPECT_TRUE(server_->prepared().Contains(kHigh2));
}

TEST_F(MultiCpTest, LowCommitFailsEveryConditionalPrepare) {
  server_->HandleCommit(kLow, {{1, 1}, {6, 1}});
  NattoServer::Stats s = server_->stats();
  EXPECT_EQ(s.cp_failed, 2u);
  EXPECT_EQ(s.cp_satisfied, 0u);
  // Both went back to waiting and, with L gone, were re-prepared firmly on
  // the normal path.
  EXPECT_EQ(server_->waiting_size(), 0u);
  EXPECT_TRUE(server_->prepared().Contains(kHigh1));
  EXPECT_TRUE(server_->prepared().Contains(kHigh2));
  EXPECT_FALSE(server_->prepared().Contains(kLow));
  EXPECT_EQ(s.conditional_prepares, 2u);
}

TEST_F(MultiCpTest, AbortedConditionalPrepareSendsNoResolution) {
  server_->HandleAbort(kHigh1);
  const uint64_t before = MessagesSent();
  server_->HandleAbort(kLow);
  EXPECT_EQ(MessagesSent() - before, 1u) << "only H2's CP may resolve";
  NattoServer::Stats s = server_->stats();
  EXPECT_EQ(s.cp_satisfied, 1u);
  EXPECT_EQ(s.cp_failed, 0u);
  EXPECT_FALSE(server_->prepared().Contains(kHigh1));
}

TEST_F(MultiCpTest, AbortedConditionalPrepareIsNotRequeuedOnLowCommit) {
  server_->HandleAbort(kHigh1);
  server_->HandleCommit(kLow, {{1, 1}, {6, 1}});
  NattoServer::Stats s = server_->stats();
  EXPECT_EQ(s.cp_failed, 1u);
  EXPECT_EQ(s.cp_satisfied, 0u);
  EXPECT_EQ(server_->waiting_size(), 0u);
  EXPECT_FALSE(server_->prepared().Contains(kHigh1));
  EXPECT_TRUE(server_->prepared().Contains(kHigh2));
}

// --- ECSF (Figs 5, 6) --------------------------------------------------------

TEST(NattoTest, LecsfServesCommittedUnreplicatedState) {
  // T2 processed while T1 is committed-but-unreplicated at the leader:
  // LECSF commits T2; without it T2's first attempt aborts on OCC.
  for (bool lecsf : {true, false}) {
    auto cluster = MakeCluster();
    NattoEngine engine(cluster.get(), lecsf ? NattoOptions::Lecsf()
                                            : NattoOptions::TsOnly());
    auto t1 = ScheduleTxn(cluster.get(), &engine, Seconds(2), MakeTxnId(1, 1),
                          txn::Priority::kLow, {2}, {2}, 0);
    auto t2 = ScheduleTxn(cluster.get(), &engine,
                          Seconds(2) + Millis(260), MakeTxnId(1, 2),
                          txn::Priority::kLow, {2}, {2}, 0);
    cluster->simulator()->RunUntil(Seconds(8));
    ASSERT_TRUE(t1->committed());
    ASSERT_TRUE(t2->result.has_value());
    if (lecsf) {
      EXPECT_TRUE(t2->committed()) << "LECSF should serve T1's writes early";
      EXPECT_EQ(t2->result->reads[0].value, 1);
      EXPECT_EQ(engine.DebugValue(2), 2);
    } else {
      EXPECT_TRUE(t2->aborted())
          << "without LECSF the conflict window extends one replication RTT";
    }
  }
}

TEST(NattoTest, RecsfForwardsReadsOfBlockedHighTxn) {
  auto cluster = MakeCluster();
  NattoEngine engine(cluster.get(), NattoOptions::Recsf());
  // Blocker commits writing key 2; high from NSW arrives at PR while the
  // blocker is prepared -> waits -> RECSF forwards its read.
  auto blocker = ScheduleTxn(cluster.get(), &engine, Seconds(2),
                             MakeTxnId(1, 1), txn::Priority::kLow, {2}, {2},
                             0);
  auto high = ScheduleTxn(cluster.get(), &engine, Seconds(2) + Millis(1),
                          MakeTxnId(2, 1), txn::Priority::kHigh, {2}, {2}, 3);
  cluster->simulator()->RunUntil(Seconds(8));
  ASSERT_TRUE(blocker->committed());
  ASSERT_TRUE(high->committed());
  EXPECT_GE(engine.TotalStats().recsf_forwards, 1u);
  EXPECT_EQ(high->result->reads[0].value, 1);  // read the blocker's write
  EXPECT_EQ(engine.DebugValue(2), 2);
}

// --- Ordering ----------------------------------------------------------------

TEST(NattoTest, LateArrivalAbortsOnOrderViolation) {
  // Under heavy delay variance some transactions arrive after their
  // timestamp and behind conflicting later-timestamped prepares; those must
  // abort rather than break the global order.
  txn::ClusterOptions copts;
  copts.delay_variance_ratio = 0.40;
  auto cluster = MakeCluster(3, copts);
  NattoEngine engine(cluster.get(), NattoOptions::Recsf());
  // Hammer one hot key from two sites.
  for (int i = 0; i < 120; ++i) {
    ScheduleTxn(cluster.get(), &engine, Seconds(2) + Millis(10 * i),
                MakeTxnId(1, 100 + i), txn::Priority::kLow, {2}, {2}, i % 5);
  }
  cluster->simulator()->RunUntil(Seconds(12));
  NattoServer::Stats stats = engine.TotalStats();
  EXPECT_GT(stats.order_violation_aborts + stats.occ_aborts, 0u);
}

TEST(NattoTest, UserAbortReleasesEverything) {
  auto cluster = MakeCluster();
  NattoEngine engine(cluster.get(), NattoOptions::Recsf());
  auto p1 = ScheduleTxn(cluster.get(), &engine, Seconds(2), MakeTxnId(1, 1),
                        txn::Priority::kHigh, {5}, {5}, 0,
                        [](const std::vector<txn::ReadResult>&) {
                          txn::WriteDecision d;
                          d.user_abort = true;
                          return d;
                        });
  auto p2 = ScheduleTxn(cluster.get(), &engine, Seconds(4), MakeTxnId(1, 2),
                        txn::Priority::kLow, {5}, {5}, 0);
  cluster->simulator()->RunUntil(Seconds(8));
  ASSERT_TRUE(p1->result.has_value());
  EXPECT_EQ(p1->result->outcome, txn::TxnOutcome::kUserAborted);
  EXPECT_TRUE(p2->committed());
  EXPECT_EQ(engine.DebugValue(5), 1);
}

TEST(NattoTest, ReadOnlyTxnCommits) {
  auto cluster = MakeCluster();
  NattoEngine engine(cluster.get(), NattoOptions::Recsf());
  auto probe = ScheduleTxn(
      cluster.get(), &engine, Seconds(2), MakeTxnId(1, 1),
      txn::Priority::kHigh, {0, 1, 2, 3, 4}, {}, 0,
      [](const std::vector<txn::ReadResult>&) { return txn::WriteDecision{}; });
  cluster->simulator()->RunUntil(Seconds(8));
  ASSERT_TRUE(probe->committed());
  EXPECT_EQ(probe->result->reads.size(), 5u);
}

}  // namespace
}  // namespace natto::core
