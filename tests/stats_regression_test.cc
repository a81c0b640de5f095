// Regression tests for the stats-layer correctness sweep: nearest-rank
// percentile selection, the delay-estimator window boundary, transport
// drop accounting for crashed endpoints, and the abort-fraction formula.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/histogram.h"
#include "harness/stats.h"
#include "net/delay_estimator.h"
#include "net/delay_model.h"
#include "net/latency_matrix.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace natto {
namespace {

// Nearest-rank percentile: rank = ceil(q * n), never rounded down to rank
// n+1 or biased a whole rank high on small samples. (The old computation
// indexed with q*n rounded, so p50 of {1, 2} read 2 and p95 of 100 samples
// read the 96th value.)
TEST(PercentileTest, UsesCeilRank) {
  EXPECT_EQ(harness::Percentile({1, 2}, 0.5), 1);
  EXPECT_EQ(harness::Percentile({1, 2}, 0.51), 2);

  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(harness::Percentile(v, 0.95), 95);
  EXPECT_EQ(harness::Percentile(v, 0.01), 1);
  EXPECT_EQ(harness::Percentile(v, 1.0), 100);

  EXPECT_EQ(harness::Percentile({}, 0.95), 0);
  EXPECT_EQ(harness::Percentile({42}, 0.5), 42);
  // Order-independent: input need not be sorted.
  EXPECT_EQ(harness::Percentile({30, 10, 20}, 0.5), 20);
}

TEST(LatencyHistogramTest, PercentileUsesCeilRank) {
  harness::LatencyHistogram h;
  h.Record(1);
  h.Record(100);
  // Ceil-rank p50 of two samples is the first one; buckets are ~4% wide so
  // the representative value is near 1 ms, nowhere near 100 ms.
  EXPECT_LT(h.Percentile(0.5), 2.0);
  EXPECT_GT(h.Percentile(1.0), 90.0);

  harness::LatencyHistogram g;
  for (int i = 1; i <= 100; ++i) g.Record(i);
  EXPECT_NEAR(g.Percentile(0.95), 95, 95 * 0.05);
}

TEST(LatencyHistogramTest, PercentileDegenerateInputsReturnZero) {
  // Regression: an empty histogram (count_ == 0) or a non-positive
  // quantile makes the ceil-rank target 0, which used to walk off the
  // bucket scan and report an arbitrary bucket midpoint. Both now answer
  // 0.0 — "the value no sample is below".
  harness::LatencyHistogram empty;
  EXPECT_EQ(empty.Percentile(0.95), 0.0);
  EXPECT_EQ(empty.Percentile(0.0), 0.0);

  harness::LatencyHistogram h;
  h.Record(50);
  EXPECT_EQ(h.Percentile(0.0), 0.0);
  EXPECT_EQ(h.Percentile(-0.5), 0.0);
  EXPECT_GT(h.Percentile(1.0), 0.0);  // real samples still report
}

TEST(DelayEstimatorTest, EstimateUsesCeilRank) {
  net::DelayEstimator est(Seconds(1), /*quantile=*/0.5);
  est.AddSample(0, Millis(10));
  est.AddSample(0, Millis(20));
  // ceil(0.5 * 2) = rank 1 -> the smaller sample.
  EXPECT_EQ(est.Estimate(0), Millis(10));

  net::DelayEstimator p95(Seconds(1), 0.95);
  for (int i = 1; i <= 100; ++i) p95.AddSample(0, Millis(i));
  EXPECT_EQ(p95.Estimate(0), Millis(95));
}

// The window is [now - window, now]: a sample whose timestamp equals the
// cutoff is still in the window. (The old eviction used <=, silently
// shrinking the window by one sample at exact boundaries.)
TEST(DelayEstimatorTest, EvictKeepsBoundarySample) {
  net::DelayEstimator est(Seconds(1), 0.95);
  est.AddSample(0, Millis(5));

  EXPECT_TRUE(est.HasSamples(Seconds(1)));  // timestamp == cutoff: retained
  EXPECT_EQ(est.Estimate(Seconds(1)), Millis(5));
  EXPECT_EQ(est.sample_count(), 1u);

  EXPECT_FALSE(est.HasSamples(Seconds(1) + 1));  // one microsecond past
  // Past the window the estimator *holds* the last-known estimate (outage
  // behavior; max_age = 0 holds forever) instead of collapsing to 0.
  EXPECT_EQ(est.Estimate(Seconds(1) + 1), Millis(5));
  EXPECT_EQ(est.sample_count(), 0u);
}

// Outage behavior: when probes stop and the window fully drains, the
// estimator keeps reporting the last in-window estimate until the last
// sample is older than max_age, then reports "no estimate" / 0. (The old
// estimator returned 0 the instant the window emptied, so a 1-second
// probe outage made Natto schedule every remote operation "now".)
TEST(DelayEstimatorTest, HoldsLastEstimateThroughOutage) {
  net::DelayEstimator est(Seconds(1), 0.95, /*max_age=*/Seconds(10));
  est.AddSample(Seconds(1), Millis(10));
  est.AddSample(Seconds(2), Millis(30));
  EXPECT_EQ(est.Estimate(Seconds(2)), Millis(30));

  // Probes stop at t=2s. Window empty at t=4s: the estimate holds.
  EXPECT_FALSE(est.HasSamples(Seconds(4)));
  EXPECT_TRUE(est.HasEstimate(Seconds(4)));
  EXPECT_EQ(est.Estimate(Seconds(4)), Millis(30));
  EXPECT_EQ(est.MeanEstimate(Seconds(4)), Millis(20));

  // Still held at exactly max_age after the last sample...
  EXPECT_EQ(est.Estimate(Seconds(12)), Millis(30));
  // ...aged out one microsecond later.
  EXPECT_FALSE(est.HasEstimate(Seconds(12) + 1));
  EXPECT_EQ(est.Estimate(Seconds(12) + 1), 0);
  EXPECT_EQ(est.MeanEstimate(Seconds(12) + 1), 0);

  // Recovery: a fresh sample re-seeds both window and held estimate.
  est.AddSample(Seconds(20), Millis(7));
  EXPECT_EQ(est.Estimate(Seconds(20)), Millis(7));
  EXPECT_EQ(est.Estimate(Seconds(25)), Millis(7));  // held again
}

// A never-probed estimator must stay at a deterministic 0 with no UB —
// the fully-evicted and never-sampled cases both take the fallback path.
TEST(DelayEstimatorTest, EmptyWindowIsDeterministicZero) {
  net::DelayEstimator est(Seconds(1), 0.95, /*max_age=*/Seconds(5));
  EXPECT_FALSE(est.HasSamples(0));
  EXPECT_FALSE(est.HasEstimate(Seconds(100)));
  EXPECT_EQ(est.Estimate(Seconds(100)), 0);
  EXPECT_EQ(est.MeanEstimate(Seconds(100)), 0);
  EXPECT_EQ(est.sample_count(), 0u);
}

// Messages refused because an endpoint is crashed count as drops, never as
// sent traffic, and the registry mirrors agree with the raw counters.
TEST(TransportTest, CrashedEndpointsCountAsDrops) {
  sim::Simulator simulator;
  net::LatencyMatrix matrix = net::LatencyMatrix::LocalTriangle();
  net::Transport transport(&simulator, &matrix, net::MakeConstantDelay(),
                           net::TransportOptions{}, /*seed=*/1);
  obs::MetricsRegistry registry;
  transport.RegisterMetrics(&registry);

  net::NodeId a = transport.AddNode(0);
  net::NodeId b = transport.AddNode(1);

  int delivered = 0;
  auto deliver = [&delivered]() { ++delivered; };

  // Receiver crashed at send time: dropped, not sent.
  transport.SetNodeCrashed(b, true);
  transport.Send(a, b, 64, deliver);
  EXPECT_EQ(transport.messages_dropped(), 1u);
  EXPECT_EQ(transport.messages_sent(), 0u);
  EXPECT_EQ(transport.bytes_sent(), 0u);

  // Sender crashed at send time: also dropped.
  transport.SetNodeCrashed(b, false);
  transport.SetNodeCrashed(a, true);
  transport.Send(a, b, 64, deliver);
  EXPECT_EQ(transport.messages_dropped(), 2u);
  EXPECT_EQ(transport.messages_sent(), 0u);

  // Receiver crashes after send but before delivery: sent, then dropped.
  transport.SetNodeCrashed(a, false);
  transport.Send(a, b, 64, deliver);
  EXPECT_EQ(transport.messages_sent(), 1u);
  transport.SetNodeCrashed(b, true);
  simulator.Run();
  EXPECT_EQ(transport.messages_dropped(), 3u);
  EXPECT_EQ(delivered, 0);

  // A healthy pair delivers.
  net::NodeId c = transport.AddNode(2);
  transport.SetNodeCrashed(b, false);
  transport.Send(c, b, 64, deliver);
  simulator.Run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(transport.messages_sent(), 2u);

  obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counter("net.messages_dropped"), 3);
  EXPECT_EQ(snap.counter("net.messages_sent"), 2);
  EXPECT_EQ(snap.counter("net.bytes_sent"),
            static_cast<int64_t>(transport.bytes_sent()));
}

// abort_fraction = aborted / (aborted + committed), in [0, 1]. (Formerly
// aborted / committed, which exceeded 1 under contention and read 0 when
// everything aborted.)
TEST(AggregateRunsTest, AbortFractionIsFractionOfAttempts) {
  harness::RunStats run;
  run.committed_high = 30;
  run.committed_low = 30;
  run.aborted_attempts = 40;
  run.measured_seconds = 1;
  harness::ExperimentResult r = harness::AggregateRuns("X", {run});
  EXPECT_DOUBLE_EQ(r.abort_fraction.mean, 0.4);

  harness::RunStats all_aborted;
  all_aborted.aborted_attempts = 5;
  all_aborted.measured_seconds = 1;
  r = harness::AggregateRuns("X", {all_aborted});
  EXPECT_DOUBLE_EQ(r.abort_fraction.mean, 1.0);

  harness::RunStats idle;
  idle.measured_seconds = 1;
  r = harness::AggregateRuns("X", {idle});
  EXPECT_DOUBLE_EQ(r.abort_fraction.mean, 0.0);
}

// Per-level p95 aggregates each run's nearest-rank p95 per priority level
// over the runs in which that level committed anything.
TEST(AggregateRunsTest, P95ByLevelAggregatesPerRunPercentiles) {
  harness::RunStats a, b;
  for (int i = 1; i <= 20; ++i) {
    a.latencies_by_level_ms[0].push_back(i);        // p95 = 19
    b.latencies_by_level_ms[0].push_back(10.0 * i);  // p95 = 190
  }
  a.latencies_by_level_ms[2] = {5};
  harness::ExperimentResult r = harness::AggregateRuns("X", {a, b});
  ASSERT_EQ(r.p95_by_level_ms.size(), 2u);
  EXPECT_DOUBLE_EQ(r.p95_by_level_ms.at(0).mean, (19.0 + 190.0) / 2);
  EXPECT_EQ(r.p95_by_level_ms.at(0).n, 2);
  EXPECT_DOUBLE_EQ(r.p95_by_level_ms.at(2).mean, 5.0);
  EXPECT_EQ(r.p95_by_level_ms.at(2).n, 1);
}

}  // namespace
}  // namespace natto
