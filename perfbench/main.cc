// perfbench: host cost of committed simulated transactions on the
// benchmark's workloads (see perfbench/NOTES.md for the definitions).
//
//   perfbench --workload retwis_dense --seed 1 --seconds 20 --trace 0
//   perfbench --identity
//
// One invocation runs one workload. It first checks, on short cells of that
// workload, that the runner reproduces harness::RunOnce byte for byte. It
// then repeats the full workload until --seconds of host time have passed
// and reports medians over the repetitions. With --trace 1 it also runs one
// traced repetition (host-time spans and heap accounting on) and reports
// the per-layer metrics instead. Every repetition's output checks run; the
// last stdout line is the JSON result, and the exit code is 1 when any check
// failed.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cells.h"
#include "harness/experiment.h"
#include "heap.h"
#include "obs/abort_cause.h"
#include "spans.h"

namespace perfbench {
namespace {

using natto::harness::Percentile;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  bool identity = false;
  std::string spans_out;
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--spans-out PATH]\n"
               "       perfbench --identity [--seed N]\n",
               msg);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    char* end = nullptr;
    if (arg == "--workload") {
      a.workload = value();
    } else if (arg == "--seed") {
      std::string v = value();
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') Usage("--seed takes an integer");
    } else if (arg == "--seconds") {
      std::string v = value();
      a.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(a.seconds > 0)) {
        Usage("--seconds takes a positive number");
      }
    } else if (arg == "--trace") {
      std::string v = value();
      if (v != "0" && v != "1") Usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (arg == "--spans-out") {
      a.spans_out = value();
    } else if (arg == "--identity") {
      a.identity = true;
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!a.identity && MakeCells(a.workload, a.seed, false).empty()) {
    Usage(("unknown workload '" + a.workload + "'").c_str());
  }
  return a;
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

// ---------------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------------

class Checks {
 public:
  void Expect(bool ok, const std::string& what) {
    if (!ok) {
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
      failures_.push_back(what);
    }
  }
  bool ok() const { return failures_.empty(); }

 private:
  std::vector<std::string> failures_;
};

/// Samples strictly beyond the nearest-rank q-percentile of n samples.
int64_t BeyondRank(size_t n, double q) {
  auto rank = static_cast<int64_t>(std::ceil(q * static_cast<double>(n)));
  return static_cast<int64_t>(n) - std::max<int64_t>(rank, 1);
}

void CheckCell(const std::string& where, const CellResult& c, bool parallel,
               Checks* checks) {
  checks->Expect(c.msgs_sent == c.msgs_delivered + c.msgs_in_flight +
                                    c.delivery_drops,
                 where + ": transport sent != delivered + in_flight + drops");
  checks->Expect(c.msgs_dropped == 0 && c.delivery_drops == 0,
                 where + ": the fault-free workload dropped messages");
  // A client has at most one attempt in flight per logical transaction, so
  // once every attempt has its outcome, every logical transaction has ended.
  checks->Expect(c.Unresolved() == 0,
                 where + ": " + std::to_string(c.Unresolved()) +
                     " transactions still unresolved after the drain");
  checks->Expect(c.committed + c.user_aborted + c.Unresolved() <= c.issued,
                 where + ": more logical outcomes than issued transactions");
  checks->Expect(c.committed > 0, where + ": nothing committed");
  const auto& s = c.stats;
  checks->Expect(BeyondRank(s.latencies_high_ms.size(), 0.95) >= 10,
                 where + ": fewer than 10 high-priority samples beyond p95");
  checks->Expect(BeyondRank(s.latencies_low_ms.size(), 0.99) >= 10,
                 where + ": fewer than 10 low-priority samples beyond p99");
  if (parallel) {
    checks->Expect(c.pk.windows > 0,
                   where + ": site-parallel cell ran zero windows");
  }
}

/// The runner must reproduce harness::RunOnce exactly (RunStats and the
/// metrics snapshot), decorators and slicing included.
void CheckIdentity(const std::string& workload, uint64_t seed,
                   Checks* checks) {
  std::vector<CellSpec> cells = MakeCells(workload, seed, true);
  for (const CellSpec& spec : cells) {
    CellResult mine = RunCell(spec);
    natto::harness::RunStats ref =
        natto::harness::RunOnce(spec.config, spec.system, spec.workload,
                                spec.seed);
    bool same = mine.digest == RenderRunStats(ref);
    std::printf("identity %-16s %-14s %s\n", workload.c_str(),
                spec.label.c_str(), same ? "identical" : "DIFFERENT");
    checks->Expect(same, "identity " + workload + "/" + spec.label +
                             ": runner output differs from harness::RunOnce");
  }
}

// ---------------------------------------------------------------------------
// One repetition of a workload
// ---------------------------------------------------------------------------

struct Rep {
  std::vector<CellResult> cells;
  double wall_s = 0;
  double cpu_s = 0;

  double Sum(double (*f)(const CellResult&)) const {
    double total = 0;
    for (const CellResult& c : cells) total += f(c);
    return total;
  }
  double Committed() const {
    return Sum([](const CellResult& c) { return double(c.committed); });
  }
  double SetupS() const {
    return Sum([](const CellResult& c) { return double(c.SetupNs()); }) / 1e9;
  }
  /// Simulation-phase CPU time (all threads) per committed transaction:
  /// what a figure grid pays per transaction, whatever the thread count.
  double HostUsPerTxn() const {
    return Sum([](const CellResult& c) { return double(c.sim_cpu_ns); }) /
           1e3 / Committed();
  }
};

Rep RunRep(const std::vector<CellSpec>& specs) {
  Rep rep;
  const double cpu0 = CpuSeconds();
  const int64_t t0 = NowNs();
  for (const CellSpec& spec : specs) rep.cells.push_back(RunCell(spec));
  rep.wall_s = static_cast<double>(NowNs() - t0) / 1e9;
  rep.cpu_s = CpuSeconds() - cpu0;
  return rep;
}

void CheckRep(const std::string& workload, const std::vector<CellSpec>& specs,
              const Rep& rep, const Rep* reference, Checks* checks) {
  for (size_t i = 0; i < rep.cells.size(); ++i) {
    const std::string where = workload + "/" + specs[i].label;
    CheckCell(where, rep.cells[i], specs[i].config.cluster.sim_threads > 1,
              checks);
    if (reference != nullptr) {
      checks->Expect(rep.cells[i].digest == reference->cells[i].digest,
                     where + ": simulated outputs differ between runs of "
                             "one seed");
    }
  }
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  /// Listed under end_to_end in BENCHMARK.json, with a regression bound.
  /// The other end-to-end metrics spread from run to run far more than any
  /// bound allows, so they are reported with the per-layer metrics: the
  /// simulated percentiles and failed_fraction are fixed by the seed (and
  /// pinned per seed by the determinism checks), and wall_s of the
  /// site-parallel workload follows how many host cores are free.
  bool bounded = true;
};

std::vector<Metric> EndToEnd(const std::vector<Rep>& reps,
                             const std::vector<double>& setup_samples,
                             double peak_rss_mb, double failed_fraction) {
  std::vector<double> wall, cpu, us_per_txn;
  for (const Rep& r : reps) {
    wall.push_back(r.wall_s);
    cpu.push_back(r.cpu_s);
    us_per_txn.push_back(r.HostUsPerTxn());
  }
  // Simulated metrics are identical across repetitions (checked): take the
  // first, averaged over the workload's cells.
  const Rep& r = reps.front();
  const double n = static_cast<double>(r.cells.size());
  auto mean = [&](double CellResult::*field) {
    double total = 0;
    for (const CellResult& c : r.cells) total += c.*field;
    return total / n;
  };
  return {
      {"wall_s", Median(wall), "s", false},
      {"cpu_s", Median(cpu), "s"},
      {"setup_s", Median(setup_samples), "s"},
      {"host_us_per_txn", Median(us_per_txn), "us"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"sim_goodput_tps", mean(&CellResult::goodput_tps), "1/s"},
      {"sim_p50_high_ms", mean(&CellResult::p50_high_ms), "ms", false},
      {"sim_p95_high_ms", mean(&CellResult::p95_high_ms), "ms", false},
      {"sim_p50_low_ms", mean(&CellResult::p50_low_ms), "ms", false},
      {"sim_p99_low_ms", mean(&CellResult::p99_low_ms), "ms", false},
      {"failed_fraction", failed_fraction, "ratio", false},
  };
}

int64_t SumCounters(const natto::obs::MetricsSnapshot& m,
                    const std::string& prefix, const std::string& suffix) {
  int64_t total = 0;
  for (const auto& [name, value] : m.counters) {
    if (name.size() >= prefix.size() + suffix.size() &&
        name.compare(0, prefix.size(), prefix) == 0 &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      total += value;
    }
  }
  return total;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Host time of `span` not covered by its children's intervals (which may
/// overlap each other when they ran on several worker threads).
double SelfNs(const Span& span, std::vector<std::pair<int64_t, int64_t>> kids) {
  std::sort(kids.begin(), kids.end());
  int64_t covered = 0;
  int64_t cur_start = 0, cur_end = 0;
  bool open = false;
  for (auto [s, e] : kids) {
    s = std::max(s, span.start_ns);
    e = std::min(e, span.end_ns);
    if (e <= s) continue;
    if (open && s <= cur_end) {
      cur_end = std::max(cur_end, e);
      continue;
    }
    if (open) covered += cur_end - cur_start;
    cur_start = s;
    cur_end = e;
    open = true;
  }
  if (open) covered += cur_end - cur_start;
  return static_cast<double>(span.end_ns - span.start_ns - covered);
}

std::vector<Metric> PerLayer(const Rep& traced, const std::vector<Span>& spans,
                             double untraced_wall_s, double heap_peak_bytes) {
  const double committed = traced.Committed();
  double events = 0, sim_ns = 0, sim_cpu_ns = 0, sim_allocs = 0;
  double msgs = 0, bytes = 0;
  double appends = 0, append_entries = 0, log_entries = 0, pending_max = 0;
  double lock_queued = 0, lock_acquired = 0, executes = 0;
  double natto_committed = 0, priority_aborts = 0, cps = 0, forwards = 0;
  double live_end = 0;
  natto::sim::ParallelPhaseStats pk;
  int pk_sites = 0;
  std::vector<double> cause(static_cast<size_t>(
      natto::obs::AbortCause::kNumCauses));
  std::vector<double> slices;
  for (const CellResult& c : traced.cells) {
    const natto::obs::MetricsSnapshot& m = c.stats.metrics;
    events += static_cast<double>(c.executed_events);
    sim_ns += static_cast<double>(c.sim_ns);
    sim_cpu_ns += static_cast<double>(c.sim_cpu_ns);
    sim_allocs += static_cast<double>(c.sim_allocs);
    msgs += static_cast<double>(c.msgs_sent);
    bytes += static_cast<double>(c.bytes_sent);
    executes += static_cast<double>(c.executes);
    pending_max = std::max(pending_max, double(c.pending_max));
    log_entries = std::max(log_entries, double(c.raft_log_entries));
    live_end = std::max(live_end, c.heap_live_end_bytes);
    auto h = m.histograms.find("raft.entries_per_append");
    if (h != m.histograms.end()) {
      appends += static_cast<double>(h->second.count);
      append_entries += h->second.sum;
    }
    lock_queued += double(SumCounters(m, "spanner.", ".locks.queued"));
    lock_acquired +=
        double(SumCounters(m, "spanner.", ".locks.acquired_immediate") +
               SumCounters(m, "spanner.", ".locks.granted_after_wait"));
    // Natto's counters are per committed txn of the Natto cells only.
    auto natto = m.counters.lower_bound("natto.");
    if (natto != m.counters.end() && natto->first.rfind("natto.", 0) == 0) {
      natto_committed += static_cast<double>(c.committed);
      priority_aborts +=
          double(SumCounters(m, "natto.server.", ".priority_aborts"));
      cps += double(SumCounters(m, "natto.server.", ".conditional_prepares"));
      forwards += double(SumCounters(m, "natto.server.", ".recsf_forwards"));
    }
    for (size_t k = 0; k < cause.size(); ++k) {
      auto ac = static_cast<natto::obs::AbortCause>(k);
      const char* name =
          k == 0 ? "unknown" : natto::obs::AbortCauseName(ac);
      cause[k] += double(m.counter(std::string("client.abort_cause.") + name));
    }
    pk.windows += c.pk.windows;
    pk.serialized_fires += c.pk.serialized_fires;
    pk.exec_cpu_seconds += c.pk.exec_cpu_seconds;
    pk.exec_critical_cpu_seconds += c.pk.exec_critical_cpu_seconds;
    pk.merge_cpu_seconds += c.pk.merge_cpu_seconds;
    if (c.pk.windows > 0) pk_sites = c.num_sites;
    slices.insert(slices.end(), c.slice_ns.begin(), c.slice_ns.end());
  }

  // Span-derived figures.
  std::map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> kids;
  std::vector<double> execute_ns, next_ns;
  for (const Span& s : spans) {
    kids[s.parent].push_back({s.start_ns, s.end_ns});
    const double d = static_cast<double>(s.end_ns - s.start_ns);
    if (s.name == SpanName::kExecute) execute_ns.push_back(d);
    if (s.name == SpanName::kNext) next_ns.push_back(d);
  }
  double slice_self_ns = 0;
  double slice_count = 0;
  for (const Span& s : spans) {
    if (s.name != SpanName::kSlice) continue;
    slice_self_ns += SelfNs(s, kids[s.id]);
    slice_count += 1;
  }
  auto phase_ms = [&](int64_t CellResult::*field) {
    double ns = 0;
    for (const CellResult& c : traced.cells) ns += double(c.*field);
    return ns / 1e6;
  };

  std::vector<Metric> out = {
      {"sim.events_per_txn", Ratio(events, committed), "count"},
      {"sim.ns_per_event", Ratio(sim_cpu_ns, events), "ns"},
      {"sim.allocs_per_event", Ratio(sim_allocs, events), "count"},
      {"sim.pending_max", pending_max, "count"},
      {"sim.slice_ms_p50", Percentile(slices, 0.50) / 1e6, "ms"},
      {"sim.slice_ms_p99", Percentile(slices, 0.99) / 1e6, "ms"},
      {"sim.slice_self_ms", Ratio(slice_self_ns, slice_count) / 1e6, "ms"},
      {"pk.windows", double(pk.windows), "count"},
      {"pk.events_per_window",
       pk.windows > 0 ? Ratio(events, double(pk.windows)) : 0.0, "count"},
      {"pk.exec_cpu_s", pk.exec_cpu_seconds, "s"},
      {"pk.critical_cpu_s", pk.exec_critical_cpu_seconds, "s"},
      {"pk.merge_cpu_s", pk.merge_cpu_seconds, "s"},
      {"pk.serialized_fires", double(pk.serialized_fires), "count"},
      {"pk.balance",
       Ratio(pk.exec_cpu_seconds, pk_sites * pk.exec_critical_cpu_seconds),
       "ratio"},
      {"pk.merge_share", Ratio(pk.merge_cpu_seconds, sim_ns / 1e9), "ratio"},
      {"net.msgs_per_txn", Ratio(msgs, committed), "count"},
      {"net.bytes_per_txn", Ratio(bytes, committed), "B"},
      {"raft.appends_per_txn", Ratio(appends, committed), "count"},
      {"raft.entries_per_append", Ratio(append_entries, appends), "count"},
      {"raft.log_entries_end", log_entries, "count"},
      {"store.lock_wait_ratio", Ratio(lock_queued, lock_acquired), "ratio"},
      {"engine.execute_us_p50", Percentile(execute_ns, 0.50) / 1e3, "us"},
      {"engine.execute_us_p99", Percentile(execute_ns, 0.99) / 1e3, "us"},
      {"engine.attempts_per_commit", Ratio(executes, committed), "ratio"},
      {"natto.priority_aborts_per_txn",
       Ratio(priority_aborts, natto_committed), "count"},
      {"natto.cp_per_txn", Ratio(cps, natto_committed), "count"},
      {"natto.recsf_forwards_per_txn", Ratio(forwards, natto_committed),
       "count"},
  };
  for (size_t k = 0; k < cause.size(); ++k) {
    auto ac = static_cast<natto::obs::AbortCause>(k);
    const char* name = k == 0 ? "unknown" : natto::obs::AbortCauseName(ac);
    out.push_back({std::string("client.aborts_per_commit.") + name,
                   Ratio(cause[k], committed), "ratio"});
  }
  const std::vector<Metric> tail = {
      {"workload.next_ns", Percentile(next_ns, 0.50), "ns"},
      {"txn.cluster_setup_ms", phase_ms(&CellResult::cluster_setup_ns), "ms"},
      {"engine.setup_ms", phase_ms(&CellResult::engine_setup_ns), "ms"},
      {"workload.setup_ms", phase_ms(&CellResult::workload_setup_ns), "ms"},
      {"harness.clients_setup_ms", phase_ms(&CellResult::clients_setup_ns),
       "ms"},
      {"harness.aggregate_ms", phase_ms(&CellResult::aggregate_ns), "ms"},
      {"obs.snapshot_ms", phase_ms(&CellResult::snapshot_ns), "ms"},
      {"heap.peak_mb", heap_peak_bytes / (1024.0 * 1024.0), "MB"},
      {"heap.live_end_mb", live_end / (1024.0 * 1024.0), "MB"},
      {"heap.allocs_per_txn", Ratio(double(HeapAllocs()), committed), "count"},
      {"trace.overhead", Ratio(traced.wall_s, untraced_wall_s), "ratio"},
  };
  out.insert(out.end(), tail.begin(), tail.end());
  return out;
}

void PrintSimDetail(const Rep& rep, const std::vector<CellSpec>& specs) {
  for (size_t i = 0; i < rep.cells.size(); ++i) {
    const CellResult& c = rep.cells[i];
    const auto& s = c.stats;
    const size_t nh = s.latencies_high_ms.size();
    const size_t nl = s.latencies_low_ms.size();
    std::printf(
        "  cell %-14s p50_high %.3f ms (n=%zu, %lld beyond)  p95_high %.3f "
        "ms (n=%zu, %lld beyond)  p50_low %.3f ms (n=%zu, %lld beyond)  "
        "p99_low %.3f ms (n=%zu, %lld beyond)  goodput %.1f txn/s\n",
        specs[i].label.c_str(), c.p50_high_ms, nh,
        static_cast<long long>(BeyondRank(nh, 0.50)), c.p95_high_ms, nh,
        static_cast<long long>(BeyondRank(nh, 0.95)), c.p50_low_ms, nl,
        static_cast<long long>(BeyondRank(nl, 0.50)), c.p99_low_ms, nl,
        static_cast<long long>(BeyondRank(nl, 0.99)), c.goodput_tps);
  }
}

/// FNV-1a over every cell's simulated-output digest: run.py compares it
/// across processes run with one seed.
uint64_t SimDigest(const Rep& rep) {
  uint64_t h = 1469598103934665603ull;
  for (const CellResult& c : rep.cells) {
    for (unsigned char ch : c.digest) {
      h = (h ^ ch) * 1099511628211ull;
    }
  }
  return h;
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int RunWorkload(const Args& args) {
  Checks checks;
  CheckIdentity(args.workload, args.seed, &checks);

  const std::vector<CellSpec> specs =
      MakeCells(args.workload, args.seed, false);
  const bool parallel = specs.front().config.cluster.sim_threads > 1;
  // Untraced repetitions fill the run; a traced run keeps half of it for
  // the traced repetition.
  const double budget_s = args.trace ? args.seconds / 2 : args.seconds;
  // Repetitions stop when the next one would overrun the budget; there is
  // always at least one.
  std::vector<Rep> reps;
  const int64_t start = NowNs();
  double elapsed_s = 0;
  double peak_rss_mb = 0;
  do {
    reps.push_back(RunRep(specs));
    // Peak RSS of one repetition: later ones only add allocator
    // fragmentation, and their number depends on host speed.
    if (reps.size() == 1) peak_rss_mb = PeakRssMb();
    CheckRep(args.workload, specs, reps.back(),
             reps.size() > 1 ? &reps.front() : nullptr, &checks);
    elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
  } while (elapsed_s * (1.0 + 1.0 / static_cast<double>(reps.size())) <=
           budget_s);

  // Set-up time is short against its noise, so it gets extra samples:
  // construct-and-discard until there are enough, within a small budget.
  std::vector<double> setup_samples;
  for (const Rep& r : reps) setup_samples.push_back(r.SetupS());
  double setup_spent_s = 0;
  while (setup_samples.size() < 9 ||
         (setup_samples.size() < 51 && setup_spent_s < 2.0)) {
    int64_t ns = 0;
    for (const CellSpec& spec : specs) ns += SetupOnly(spec);
    setup_samples.push_back(static_cast<double>(ns) / 1e9);
    setup_spent_s += setup_samples.back();
  }

  // One operation is one logical simulated transaction. It fails when the
  // simulation loses it: still unresolved after the drain. A transaction the
  // simulated client gave up on after max_attempts reached a definite
  // outcome of the modelled protocol; it is reported as failed_fraction.
  const Rep& first = reps.front();
  uint64_t issued = 0, unresolved = 0, gave_up = 0;
  for (const CellResult& c : first.cells) {
    issued += c.issued;
    unresolved += c.Unresolved();
    gave_up += c.GaveUp();
  }

  std::vector<Metric> e2e = EndToEnd(reps, setup_samples, peak_rss_mb,
                                     Ratio(double(gave_up), double(issued)));
  std::printf("workload %s seed %llu: %zu repetition(s), %s kernel\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), reps.size(),
              parallel ? "site-parallel" : "serial");
  PrintSimDetail(first, specs);
  std::printf("  repetition wall_s:");
  for (const Rep& r : reps) std::printf(" %.3f", r.wall_s);
  std::printf("\n");
  std::vector<Metric> out;
  for (const Metric& m : e2e) {
    std::printf("  %-22s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
    if (m.bounded != args.trace) out.push_back(m);
  }
  std::printf("  (failed_fraction: %llu of %llu issued gave up after "
              "max_attempts)\n",
              static_cast<unsigned long long>(gave_up),
              static_cast<unsigned long long>(issued));

  if (args.trace) {
    std::vector<double> walls;
    for (const Rep& r : reps) walls.push_back(r.wall_s);
    SetHeapTracking(true);
    SetSpansEnabled(true);
    Rep traced = RunRep(specs);
    SetSpansEnabled(false);
    const double heap_peak = HeapPeakBytes();
    SetHeapTracking(false);
    CheckRep(args.workload, specs, traced, &first, &checks);
    std::vector<Span> spans = DrainSpans();
    if (!args.spans_out.empty()) {
      checks.Expect(WriteSpansCsv(args.spans_out, spans),
                    "cannot write spans to " + args.spans_out);
    }
    std::vector<Metric> layers =
        PerLayer(traced, spans, Median(walls), heap_peak);
    std::printf("  traced repetition: %zu spans\n", spans.size());
    out.insert(out.end(), layers.begin(), layers.end());
    for (const Metric& m : layers) {
      std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  std::printf("sim-digest %016llx\n",
              static_cast<unsigned long long>(SimDigest(first)));
  PrintJson(checks.ok(), issued, unresolved, out);
  return checks.ok() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args = ParseArgs(argc, argv);
  if (args.identity) {
    Checks checks;
    for (const std::string& w : WorkloadNames()) {
      CheckIdentity(w, args.seed, &checks);
    }
    return checks.ok() ? 0 : 1;
  }
  return RunWorkload(args);
}
