#ifndef NATTO_OBS_METRICS_H_
#define NATTO_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace natto::obs {

/// Monotone integer counter. Handles are owned by a MetricsRegistry and stay
/// valid for the registry's lifetime. Increments are relaxed atomic adds so
/// instrumented code may run on the parallel kernel's worker lanes; on x86
/// that is the same locked add an uncontended mutex would start with, and
/// the single-threaded cost stays a single instruction.
class Counter {
 public:
  void Inc(int64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Last-written value (queue depths, cache sizes). Merged across runs by
/// summing; divide by `MetricsSnapshot::runs` for a per-run mean.
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0;
};

/// Fixed-layout log2-bucketed histogram of non-negative samples (bucket b
/// counts samples in [2^(b-1), 2^b); bucket 0 counts samples < 1). The
/// layout is identical for every instance, so histograms merge across runs
/// without negotiation.
class Histogram {
 public:
  static constexpr int kNumBuckets = 48;

  void Record(double v);
  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  const uint64_t* buckets() const { return buckets_; }

 private:
  uint64_t buckets_[kNumBuckets] = {};
  uint64_t count_ = 0;
  double sum_ = 0;
};

/// Value-type copy of one histogram, carried inside snapshots.
struct HistogramData {
  std::vector<uint64_t> buckets;
  uint64_t count = 0;
  double sum = 0;

  bool operator==(const HistogramData&) const = default;
};

/// Point-in-time copy of a registry. A plain value: mergeable, comparable,
/// and serializable. All maps are ordered by metric name, so rendering and
/// merging are deterministic regardless of registration order or thread
/// interleaving in the harness.
struct MetricsSnapshot {
  std::map<std::string, int64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramData> histograms;
  /// Number of runs folded into this snapshot (1 for a fresh snapshot).
  int64_t runs = 1;

  /// Sums `other` into this snapshot key by key. Merging is commutative and
  /// associative on counters/histograms; the harness nevertheless always
  /// merges in submission order so gauge sums are reproducible too.
  void MergeFrom(const MetricsSnapshot& other);

  int64_t counter(const std::string& name) const;

  bool operator==(const MetricsSnapshot&) const = default;

  /// Stable JSON rendering (sorted keys, fixed float format).
  std::string ToJson() const;
};

/// Registry of named metrics. One registry per simulation cell (owned by the
/// Cluster): engines, lock tables and the harness client register their
/// instruments here instead of keeping ad-hoc stat fields. Get-or-create by
/// name: components that share a name share the instrument. Components that
/// keep their own lane-local totals (the transport) register a source
/// instead, which Snapshot() pulls.
///
/// Registration, AddSource() and Snapshot() are not thread-safe: components
/// register at construction and snapshot after the run, both on the main
/// thread. Counter increments through handles are atomic, so worker-lane
/// callbacks under the parallel kernel may bump them concurrently; sources
/// are read only by Snapshot(), after the kernel's window barrier. The
/// parallel experiment runner additionally gives every cell its own
/// registry.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Pull hook: `source` adds its counters to a snapshot (summing into any
  /// registry counter of the same name). Snapshot() calls every source, in
  /// registration order, after copying the registry's own instruments. A
  /// source should write each of its names on every call, zeros included,
  /// so the rendering does not depend on what the run happened to do. The
  /// source must stay callable until the registry's last Snapshot().
  using Source = std::function<void(MetricsSnapshot*)>;
  void AddSource(Source source);

  MetricsSnapshot Snapshot() const;

 private:
  // Deques: handle pointers must survive later registrations.
  std::deque<Counter> counter_storage_;
  std::deque<Gauge> gauge_storage_;
  std::deque<Histogram> histogram_storage_;
  std::map<std::string, Counter*> counters_;
  std::map<std::string, Gauge*> gauges_;
  std::map<std::string, Histogram*> histograms_;
  std::vector<Source> sources_;
};

}  // namespace natto::obs

#endif  // NATTO_OBS_METRICS_H_
