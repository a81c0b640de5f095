// The benchmark's simulation runner. It reproduces harness::RunOnce from the
// library's public API (txn::Cluster, System::make, harness::Client,
// Simulator::RunUntil) so that each layer can be timed from outside and its
// state read after the run, and it defines the benchmark's three workloads.
#ifndef PERFBENCH_CELLS_H_
#define PERFBENCH_CELLS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/stats.h"
#include "harness/systems.h"
#include "sim/parallel_kernel.h"

namespace perfbench {

/// One simulation cell: a system under one configuration and seed.
struct CellSpec {
  std::string label;  // system name, plus "#r" for the r-th repeat
  natto::harness::ExperimentConfig config;
  natto::harness::System system;
  natto::harness::WorkloadFactory workload;
  uint64_t seed = 0;
};

/// The benchmark workloads, in the order `--workload all` runs them.
const std::vector<std::string>& WorkloadNames();

/// The cells of workload `name` for benchmark seed `seed`, or an empty
/// vector for an unknown name. `short_cells` shrinks the simulated run
/// (same topology, systems and rates) for the identity check.
std::vector<CellSpec> MakeCells(const std::string& name, uint64_t seed,
                                bool short_cells);

/// Simulated time covered by one RunUntil slice.
constexpr natto::SimDuration kSlice = natto::Millis(10);

/// Everything one cell run yields: the harness's own RunStats, host-time
/// phase costs, and each layer's state read after the drain.
struct CellResult {
  natto::harness::RunStats stats;

  // Host time per phase (ns).
  int64_t cluster_setup_ns = 0;
  int64_t engine_setup_ns = 0;
  int64_t workload_setup_ns = 0;
  int64_t clients_setup_ns = 0;
  int64_t sim_ns = 0;      // wall time of the RunUntil slices
  int64_t sim_cpu_ns = 0;  // process CPU time (all threads) over the same
  int64_t snapshot_ns = 0;
  int64_t aggregate_ns = 0;
  std::vector<double> slice_ns;  // one entry per RunUntil slice

  int64_t SetupNs() const {
    return cluster_setup_ns + engine_setup_ns + workload_setup_ns +
           clients_setup_ns;
  }

  // Kernel.
  uint64_t executed_events = 0;
  uint64_t pending_max = 0;  // sampled at slice boundaries
  natto::sim::ParallelPhaseStats pk;
  int num_sites = 0;

  // Decorator counts over the whole run (not only the measurement window).
  uint64_t issued = 0;        // logical transactions (Workload::Next calls)
  uint64_t executes = 0;      // attempts (TxnEngine::Execute calls)
  uint64_t outcomes = 0;      // attempt callbacks
  uint64_t committed = 0;     // committed attempts = committed logical txns
  uint64_t user_aborted = 0;  // user-aborted attempts

  /// Attempts (= logical transactions) with no outcome yet.
  uint64_t Unresolved() const { return executes - outcomes; }
  /// Logical transactions the client gave up on after max_attempts.
  uint64_t GaveUp() const {
    const uint64_t ended = committed + user_aborted + Unresolved();
    return issued > ended ? issued - ended : 0;
  }

  // Transport accounting, read after the drain.
  uint64_t msgs_sent = 0;
  uint64_t msgs_delivered = 0;
  uint64_t msgs_in_flight = 0;
  uint64_t delivery_drops = 0;
  uint64_t msgs_dropped = 0;
  uint64_t bytes_sent = 0;

  uint64_t raft_log_entries = 0;  // summed over every replica

  // Heap accounting (only while heap tracking is on).
  uint64_t sim_allocs = 0;
  double heap_live_end_bytes = 0;

  // Measurement-window latencies and goodput (simulated time).
  double p50_high_ms = 0, p95_high_ms = 0, p50_low_ms = 0, p99_low_ms = 0;
  double goodput_tps = 0;
  /// Digest of the simulated outputs: RunStats plus the metrics snapshot.
  std::string digest;
};

/// Runs one cell through the benchmark runner.
CellResult RunCell(const CellSpec& spec);

/// Constructs one cell (cluster, engine, workload, started clients) and
/// tears it down without simulating; returns the construction time in ns.
int64_t SetupOnly(const CellSpec& spec);

/// Byte-exact rendering of a RunStats (hex floats, every field) followed by
/// MetricsSnapshot::ToJson().
std::string RenderRunStats(const natto::harness::RunStats& stats);

}  // namespace perfbench

#endif  // PERFBENCH_CELLS_H_
