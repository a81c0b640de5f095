#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <vector>

#include "common/flat_table.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"

namespace natto {
namespace {

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::Aborted("conflict on key 7");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsAborted());
  EXPECT_EQ(s.code(), StatusCode::kAborted);
  EXPECT_EQ(s.ToString(), "Aborted: conflict on key 7");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode c :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kAborted,
        StatusCode::kUnavailable, StatusCode::kInternal,
        StatusCode::kOutOfRange, StatusCode::kFailedPrecondition}) {
    EXPECT_STRNE(StatusCodeName(c), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("hello");
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "hello");
}

// ---------------------------------------------------------------------------
// TxnId packing
// ---------------------------------------------------------------------------

TEST(TxnIdTest, PackUnpackRoundTrips) {
  TxnId id = MakeTxnId(0xdeadbeef, 0x12345678);
  EXPECT_EQ(TxnIdClient(id), 0xdeadbeefu);
  EXPECT_EQ(TxnIdSeq(id), 0x12345678u);
}

TEST(TxnIdTest, OrderFollowsClientThenSeq) {
  EXPECT_LT(MakeTxnId(1, 999), MakeTxnId(2, 0));
  EXPECT_LT(MakeTxnId(1, 1), MakeTxnId(1, 2));
}

TEST(WireBytesTest, SizesScaleWithKeys) {
  EXPECT_EQ(WireKeysBytes(0), kMessageHeaderBytes);
  EXPECT_EQ(WireKeysBytes(3), kMessageHeaderBytes + 3 * kKeyBytes);
  EXPECT_EQ(WireKvBytes(2), kMessageHeaderBytes + 2 * (kKeyBytes + kValueBytes));
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000000), b.UniformInt(0, 1000000));
  }
}

TEST(RngTest, ForkedStreamsDiffer) {
  Rng a(42);
  Rng b = a.Fork();
  Rng c = a.Fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (b.UniformInt(0, 1 << 30) == c.UniformInt(0, 1 << 30)) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(1);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
    saw_lo |= (v == 3);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(1);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  Rng rng(2);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(10.0);
  EXPECT_NEAR(sum / n, 0.1, 0.005);  // mean = 1/rate
}

TEST(RngTest, ParetoMeanMatchesFormula) {
  Rng rng(3);
  double xm = 2.0, alpha = 3.0;
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.Pareto(xm, alpha);
  EXPECT_NEAR(sum / n, alpha * xm / (alpha - 1), 0.05);
}

// ---------------------------------------------------------------------------
// Logging
// ---------------------------------------------------------------------------

int CountingHelper(int* counter) {
  ++*counter;
  return 1;
}

TEST(LoggingTest, DcheckConditionNotEvaluatedInRelease) {
  int cond_evals = 0;
  // A passing condition with a counted side effect. In debug builds the
  // condition must run (and pass); in NDEBUG builds NATTO_DCHECK is a true
  // no-op and must not evaluate it at all.
  NATTO_DCHECK(CountingHelper(&cond_evals) == 1);
#ifdef NDEBUG
  EXPECT_EQ(cond_evals, 0);
#else
  EXPECT_EQ(cond_evals, 1);
#endif
}

TEST(LoggingTest, DcheckStreamedArgsNeverEvaluated) {
  int stream_evals = 0;
  // Streamed operands only run when a check FAILS (to build the message).
  // On a passing debug check they are skipped; in NDEBUG the whole
  // statement is dead code. Either way: zero evaluations.
  NATTO_DCHECK(1 + 1 == 2) << "unexpected sum " << CountingHelper(&stream_evals);
  EXPECT_EQ(stream_evals, 0);
}

TEST(LoggingTest, DcheckCompilesAsSingleStatementInIfElse) {
  int branch = 0;
  // Regression guard: the macro must behave as one statement so un-braced
  // if/else around it keeps its meaning.
  if (branch == 0)
    NATTO_DCHECK(branch == 0) << "streamed " << branch;
  else
    branch = 2;
  EXPECT_EQ(branch, 0);
}


// ---------------------------------------------------------------------------
// FlatMap / FlatSet
// ---------------------------------------------------------------------------

/// Key drawn from a mix of shapes: a small dense range (hits), TxnId-style
/// (client << 32 | seq), values differing only in high bits (weak for
/// multiplicative hashing), and the two edge keys 0 and ~0.
uint64_t DrawKey(Rng& rng) {
  switch (rng.UniformInt(0, 4)) {
    case 0:
      return static_cast<uint64_t>(rng.UniformInt(0, 300));
    case 1:
      return MakeTxnId(static_cast<uint32_t>(rng.UniformInt(0, 40)),
                       static_cast<uint32_t>(rng.UniformInt(0, 40)));
    case 2:
      return static_cast<uint64_t>(rng.UniformInt(0, 60)) << 52;
    case 3:
      return rng.UniformInt(0, 1) == 0 ? 0 : ~uint64_t{0};
    default:
      return static_cast<uint64_t>(rng.UniformInt(0, 1'000'000));
  }
}

TEST(FlatMapTest, LockstepsStdUnorderedMapThroughGrowthAndEraseStorms) {
  Rng rng(2024);
  FlatMap<std::string> flat;
  std::unordered_map<uint64_t, std::string> ref;
  // Phases alternate insert-heavy and erase-heavy mixes; the insert phases
  // grow the table through several doublings, the erase phases exercise
  // backward-shift relocation of displaced neighbours.
  const int kInsertPercent[] = {80, 20, 90, 10, 85, 5, 70};
  for (int insert_pct : kInsertPercent) {
    for (int step = 0; step < 6000; ++step) {
      uint64_t k = DrawKey(rng);
      int op = static_cast<int>(rng.UniformInt(0, 99));
      if (op < insert_pct) {
        std::string v = std::to_string(step) + "/" + std::to_string(k);
        auto [slot, inserted] = flat.try_emplace(k);
        auto [it, ref_inserted] = ref.try_emplace(k);
        ASSERT_EQ(inserted, ref_inserted) << "key " << k;
        ASSERT_EQ(*slot, it->second) << "key " << k;
        *slot = v;
        it->second = v;
      } else if (op < insert_pct + (100 - insert_pct) / 2) {
        ASSERT_EQ(flat.erase(k), ref.erase(k)) << "key " << k;
      } else {
        const std::string* got = flat.find(k);
        auto it = ref.find(k);
        ASSERT_EQ(got != nullptr, it != ref.end()) << "key " << k;
        if (got != nullptr) {
          ASSERT_EQ(*got, it->second) << "key " << k;
        }
      }
      ASSERT_EQ(flat.size(), ref.size());
    }
    // Full cross-check: every reference entry is findable with its value.
    for (const auto& [k, v] : ref) {
      const std::string* got = flat.find(k);
      ASSERT_NE(got, nullptr) << "key " << k;
      ASSERT_EQ(*got, v) << "key " << k;
    }
  }
  // Grow from empty through many doublings, then erase everything.
  FlatMap<uint64_t> big;
  for (uint64_t i = 0; i < 50'000; ++i) big[i * 7919] = i;
  ASSERT_EQ(big.size(), 50'000u);
  for (uint64_t i = 0; i < 50'000; ++i) {
    const uint64_t* v = big.find(i * 7919);
    ASSERT_NE(v, nullptr);
    ASSERT_EQ(*v, i);
  }
  for (uint64_t i = 0; i < 50'000; i += 2) ASSERT_EQ(big.erase(i * 7919), 1u);
  for (uint64_t i = 0; i < 50'000; ++i) {
    ASSERT_EQ(big.contains(i * 7919), i % 2 == 1) << i;
  }
  for (uint64_t i = 1; i < 50'000; i += 2) ASSERT_EQ(big.erase(i * 7919), 1u);
  EXPECT_TRUE(big.empty());
}

TEST(FlatMapTest, EdgeKeysZeroAndAllOnesAreOrdinaryKeys) {
  FlatMap<int> m;
  EXPECT_FALSE(m.contains(0));
  EXPECT_EQ(m.erase(0), 0u);
  m[0] = 5;
  m[~uint64_t{0}] = 7;
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(*m.find(0), 5);
  EXPECT_EQ(*m.find(~uint64_t{0}), 7);
  EXPECT_FALSE(m.try_emplace(0).second);
  EXPECT_EQ(m.erase(0), 1u);
  EXPECT_FALSE(m.contains(0));
  EXPECT_EQ(m[0], 0);  // re-inserted value-initialized, not the stale 5
  EXPECT_EQ(m.erase(~uint64_t{0}), 1u);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMapTest, MovedFromMapIsEmptyAndReusable) {
  FlatMap<int> a;
  a[1] = 1;
  a[0] = 2;
  FlatMap<int> b(std::move(a));
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(*b.find(1), 1);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_FALSE(a.contains(1));
  a[5] = 5;
  EXPECT_EQ(*a.find(5), 5);
  b = std::move(a);
  EXPECT_EQ(b.size(), 1u);
  EXPECT_FALSE(b.contains(1));
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move)
}

TEST(FlatSetTest, InsertReportsNoveltyAndEraseReportsRemoval) {
  FlatSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(s.insert(42));
  EXPECT_FALSE(s.insert(42));
  EXPECT_TRUE(s.insert(0));
  EXPECT_TRUE(s.contains(0));
  EXPECT_EQ(s.erase(42), 1u);
  EXPECT_EQ(s.erase(42), 0u);
  EXPECT_FALSE(s.contains(42));
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s.erase(0), 1u);
  EXPECT_TRUE(s.empty());
}

}  // namespace
}  // namespace natto
