#include "cells.h"

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <utility>

#include "common/rng.h"
#include "harness/client.h"
#include "harness/parallel_runner.h"
#include "heap.h"
#include "net/latency_matrix.h"
#include "spans.h"
#include "txn/cluster.h"
#include "txn/topology.h"
#include "workload/retwis.h"
#include "workload/ycsbt.h"

namespace perfbench {

using natto::Millis;
using natto::Rng;
using natto::Seconds;
using natto::SimTime;
namespace harness = natto::harness;
namespace txn = natto::txn;
namespace wl = natto::workload;

namespace {

int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

[[noreturn]] void Fail(const char* what) {
  std::fprintf(stderr, "perfbench: %s\n", what);
  std::exit(2);
}

// ---------------------------------------------------------------------------
// Workload definitions
// ---------------------------------------------------------------------------

void SetLength(harness::ExperimentConfig* c, natto::SimDuration duration,
               natto::SimDuration warmup, natto::SimDuration cooldown,
               natto::SimDuration drain) {
  c->duration = duration;
  c->warmup = warmup;
  c->cooldown = cooldown;
  c->drain = drain;
}

/// Fig 14's cell: three datacenters 4/6/8 ms apart, 6 partitions x 3
/// replicas, Retwis with uniform keys and 10% high priority, 25 us of server
/// CPU per message, Natto-RECSF. How much work a seed makes depends on the
/// seed (clock skews, arrival gaps), so a workload runs the cell under
/// `repeats` seeds, harness-style (CellSeed(seed, 0, 0, repeat)).
std::vector<CellSpec> RetwisCells(double rate_tps, int sim_threads,
                                  int repeats, uint64_t seed,
                                  bool short_cells) {
  CellSpec c;
  c.config.matrix = natto::net::LatencyMatrix::LocalTriangle();
  c.config.num_partitions = 6;
  c.config.num_replicas = 3;
  c.config.clients_per_site = 2;
  c.config.input_rate_tps = rate_tps;
  c.config.cluster.transport.node_cost_per_message = natto::Micros(25);
  c.config.cluster.sim_threads = sim_threads;
  if (short_cells) {
    SetLength(&c.config, Millis(600), Millis(150), Millis(150), Millis(300));
    repeats = 1;
  } else if (sim_threads > 1) {
    // Past the knee the backlog grows for the whole run, so the cell stays
    // short; the drain lets every backlogged attempt resolve.
    SetLength(&c.config, Millis(1500), Millis(400), Millis(400), Seconds(3));
  } else {
    SetLength(&c.config, Seconds(4), Seconds(1), Seconds(1), Seconds(1));
  }
  c.system = harness::MakeSystem(harness::SystemKind::kNattoRecsf);
  c.workload = []() {
    wl::RetwisWorkload::Options o;
    o.uniform_keys = true;
    return std::make_unique<wl::RetwisWorkload>(o);
  };
  std::vector<CellSpec> cells;
  for (int r = 0; r < repeats; ++r) {
    c.label = c.system.name + "#" + std::to_string(r);
    c.seed = harness::CellSeed(seed, 0, 0, r);
    cells.push_back(c);
  }
  return cells;
}

/// Fig 7(a/b)'s 350 txn/s point: the five Azure datacenters, 5 partitions x
/// 3 replicas, YCSB+T on Zipf(0.65) keys with 10% high priority, one cell
/// per system of AzureSystems(), run in legend order.
std::vector<CellSpec> YcsbtLineupCells(uint64_t seed, bool short_cells) {
  std::vector<CellSpec> cells;
  std::vector<harness::System> systems = harness::AzureSystems();
  for (size_t s = 0; s < systems.size(); ++s) {
    CellSpec c;
    c.config.matrix = natto::net::LatencyMatrix::AzureFive();
    c.config.num_partitions = 5;
    c.config.num_replicas = 3;
    c.config.clients_per_site = 2;
    c.config.input_rate_tps = 350;
    if (short_cells) {
      SetLength(&c.config, Seconds(2), Millis(500), Millis(500), Seconds(5));
    } else {
      SetLength(&c.config, Seconds(12), Seconds(2), Seconds(2), Seconds(150));
    }
    c.system = systems[s];
    c.label = systems[s].name;
    c.workload = []() {
      return std::make_unique<wl::YcsbTWorkload>(wl::YcsbTWorkload::Options{});
    };
    c.seed = harness::CellSeed(seed, static_cast<int>(s), 0, 0);
    cells.push_back(std::move(c));
  }
  return cells;
}

// ---------------------------------------------------------------------------
// Decorators
// ---------------------------------------------------------------------------

/// Whole-run attempt accounting, bumped from whichever lane runs the client.
struct OutcomeCounters {
  std::atomic<uint64_t> issued{0};
  std::atomic<uint64_t> executes{0};
  std::atomic<uint64_t> outcomes{0};
  std::atomic<uint64_t> committed{0};
  std::atomic<uint64_t> user_aborted{0};
};

void Bump(std::atomic<uint64_t>& c) {
  c.fetch_add(1, std::memory_order_relaxed);
}

class CountingEngine final : public txn::TxnEngine {
 public:
  CountingEngine(std::unique_ptr<txn::TxnEngine> inner,
                 OutcomeCounters* counters)
      : inner_(std::move(inner)), counters_(counters) {}

  void Execute(const txn::TxnRequest& request,
               txn::TxnCallback done) override {
    ScopedSpan span(SpanName::kExecute);
    Bump(counters_->executes);
    inner_->Execute(request, [counters = counters_, done = std::move(done)](
                                 const txn::TxnResult& result) {
      Bump(counters->outcomes);
      if (result.outcome == txn::TxnOutcome::kCommitted) {
        Bump(counters->committed);
      } else if (result.outcome == txn::TxnOutcome::kUserAborted) {
        Bump(counters->user_aborted);
      }
      done(result);
    });
  }

  std::string name() const override { return inner_->name(); }
  natto::Value DebugValue(natto::Key key) override {
    return inner_->DebugValue(key);
  }

 private:
  std::unique_ptr<txn::TxnEngine> inner_;
  OutcomeCounters* counters_;
};

class CountingWorkload final : public wl::Workload {
 public:
  CountingWorkload(std::unique_ptr<wl::Workload> inner,
                   OutcomeCounters* counters)
      : inner_(std::move(inner)), counters_(counters) {}

  txn::TxnRequest Next(Rng& rng) override {
    ScopedSpan span(SpanName::kNext);
    Bump(counters_->issued);
    return inner_->Next(rng);
  }
  std::string name() const override { return inner_->name(); }
  uint64_t keyspace() const override { return inner_->keyspace(); }

 private:
  std::unique_ptr<wl::Workload> inner_;
  OutcomeCounters* counters_;
};

// ---------------------------------------------------------------------------
// Cell construction (harness::RunOnce, phase by phase)
// ---------------------------------------------------------------------------

void CheckSupported(const harness::ExperimentConfig& c) {
  // The runner reproduces RunOnce's fault-free client path only.
  if (!c.cluster.fault_schedule.empty() || c.cluster.gray.enabled ||
      c.cluster.trace.enabled || c.request_timeout > 0 ||
      c.backoff_base > 0 || c.hedge_percentile > 0 ||
      c.timeline_bucket > 0) {
    Fail("cell uses a harness feature the runner does not reproduce");
  }
}

/// A constructed cell. Members are declared in dependency order so the
/// implicit destructor tears down clients, then the engine and workload,
/// then the cluster.
class Cell {
 public:
  Cell(const CellSpec& spec, natto::sim::ParallelPhaseStats* pk,
       CellResult* timing)
      : config_(spec.config) {
    CheckSupported(config_);
    int64_t t0 = NowNs();
    {
      ScopedSpan s(SpanName::kClusterSetup);
      txn::Topology topology = txn::Topology::Spread(
          config_.num_partitions, config_.num_replicas,
          config_.matrix.num_sites());
      txn::ClusterOptions copts = config_.cluster;
      copts.seed = spec.seed;
      copts.default_value = config_.default_value;
      copts.parallel_phase_stats = pk;
      cluster_ = std::make_unique<txn::Cluster>(config_.matrix, topology,
                                                copts);
    }
    int64_t t1 = NowNs();
    {
      ScopedSpan s(SpanName::kEngineSetup);
      engine_ = std::make_unique<CountingEngine>(
          spec.system.make(cluster_.get()), &counters_);
    }
    int64_t t2 = NowNs();
    {
      ScopedSpan s(SpanName::kWorkloadSetup);
      workload_ =
          std::make_unique<CountingWorkload>(spec.workload(), &counters_);
    }
    int64_t t3 = NowNs();
    {
      ScopedSpan s(SpanName::kClientsSetup);
      StartClients(spec.seed);
    }
    int64_t t4 = NowNs();
    timing->cluster_setup_ns = t1 - t0;
    timing->engine_setup_ns = t2 - t1;
    timing->workload_setup_ns = t3 - t2;
    timing->clients_setup_ns = t4 - t3;
  }
  Cell(const Cell&) = delete;
  Cell& operator=(const Cell&) = delete;

  void Run(CellResult* r) {
    natto::sim::Simulator* sim = cluster_->simulator();
    const SimTime end = config_.duration + config_.drain;
    const uint64_t allocs0 = HeapAllocs();
    const int64_t cpu0 = ProcessCpuNs();
    const int64_t t0 = NowNs();
    for (SimTime t = 0; t < end;) {
      t = std::min(end, t + kSlice);
      const int64_t s0 = NowNs();
      {
        ScopedSpan slice(SpanName::kSlice);
        SetAmbientParent(slice.id());
        sim->RunUntil(t);
        SetAmbientParent(0);
      }
      r->slice_ns.push_back(static_cast<double>(NowNs() - s0));
      r->pending_max = std::max<uint64_t>(r->pending_max,
                                          sim->pending_events());
    }
    r->sim_ns = NowNs() - t0;
    r->sim_cpu_ns = ProcessCpuNs() - cpu0;
    r->sim_allocs = HeapAllocs() - allocs0;

    const int64_t t1 = NowNs();
    {
      ScopedSpan s(SpanName::kSnapshot);
      stats_.metrics = cluster_->metrics()->Snapshot();
    }
    const int64_t t2 = NowNs();
    {
      ScopedSpan s(SpanName::kAggregate);
      Aggregate(r);
    }
    r->aggregate_ns = NowNs() - t2;
    r->snapshot_ns = t2 - t1;

    r->executed_events = sim->executed_events();
    r->num_sites = cluster_->topology().num_sites();
    r->issued = counters_.issued.load();
    r->executes = counters_.executes.load();
    r->outcomes = counters_.outcomes.load();
    r->committed = counters_.committed.load();
    r->user_aborted = counters_.user_aborted.load();
    natto::net::Transport* net = cluster_->transport();
    r->msgs_sent = net->messages_sent();
    r->msgs_delivered = net->messages_delivered();
    r->msgs_in_flight = net->messages_in_flight();
    r->delivery_drops = net->delivery_drops();
    r->msgs_dropped = net->messages_dropped();
    r->bytes_sent = net->bytes_sent();
    for (int p = 0; p < cluster_->topology().num_partitions(); ++p) {
      natto::raft::RaftGroup* g = cluster_->group(p);
      for (size_t i = 0; i < g->size(); ++i) {
        r->raft_log_entries += g->replica(i)->log_size();
      }
    }
    r->heap_live_end_bytes = HeapLiveBytes();
    r->stats = std::move(stats_);
  }

 private:
  void StartClients(uint64_t seed) {
    const int num_sites = cluster_->topology().num_sites();
    const int total = num_sites * config_.clients_per_site;
    const double per_client_rate =
        config_.input_rate_tps / static_cast<double>(total);
    stats_.measured_seconds =
        natto::ToSeconds(config_.duration - config_.cooldown - config_.warmup);
    Rng client_seed_rng(seed ^ 0x9e3779b97f4a7c15ull);
    if (natto::sim::DeterminismLedger* ledger = cluster_->ledger()) {
      client_seed_rng.Instrument(ledger->RegisterRngStream("harness.clients"));
    }
    uint32_t client_id = 1;
    for (int s = 0; s < num_sites; ++s) {
      for (int c = 0; c < config_.clients_per_site; ++c) {
        harness::Client::Options opts;
        opts.rate_tps = per_client_rate;
        opts.origin_site = s;
        opts.client_id = client_id++;
        opts.stop_generating_at = config_.duration;
        opts.measure_start = config_.warmup;
        opts.measure_end = config_.duration - config_.cooldown;
        opts.max_attempts = config_.max_attempts;
        opts.promote_after_aborts = config_.promote_after_aborts;
        clients_.push_back(std::make_unique<harness::Client>(
            cluster_->simulator(), engine_.get(), workload_.get(), opts,
            client_seed_rng.Fork(), &stats_, cluster_->metrics()));
        clients_.back()->Start();
      }
    }
  }

  void Aggregate(CellResult* r) {
    // The harness's own aggregation of a single run, plus the percentiles
    // it does not report.
    harness::ExperimentResult agg =
        harness::AggregateRuns(engine_->name(), {stats_});
    r->p95_high_ms = agg.p95_high_ms.mean;
    r->goodput_tps = agg.goodput_total_tps.mean;
    r->p50_high_ms = harness::Percentile(stats_.latencies_high_ms, 0.50);
    r->p50_low_ms = harness::Percentile(stats_.latencies_low_ms, 0.50);
    r->p99_low_ms = harness::Percentile(stats_.latencies_low_ms, 0.99);
    r->digest = RenderRunStats(stats_);
  }

  harness::ExperimentConfig config_;
  harness::RunStats stats_;
  OutcomeCounters counters_;
  std::unique_ptr<txn::Cluster> cluster_;
  std::unique_ptr<CountingEngine> engine_;
  std::unique_ptr<CountingWorkload> workload_;
  std::vector<std::unique_ptr<harness::Client>> clients_;
};

void AppendDoubles(std::string* out, const char* name,
                   const std::vector<double>& v) {
  char buf[64];
  *out += name;
  *out += '=';
  for (double d : v) {
    std::snprintf(buf, sizeof(buf), "%a,", d);
    *out += buf;
  }
  *out += '\n';
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "retwis_dense", "retwis_saturated", "ycsbt_lineup"};
  return names;
}

std::vector<CellSpec> MakeCells(const std::string& name, uint64_t seed,
                                bool short_cells) {
  if (name == "retwis_dense") {
    return RetwisCells(8000, 1, 4, seed, short_cells);
  }
  if (name == "retwis_saturated") {
    return RetwisCells(11000, 3, 5, seed, short_cells);
  }
  if (name == "ycsbt_lineup") return YcsbtLineupCells(seed, short_cells);
  return {};
}

CellResult RunCell(const CellSpec& spec) {
  CellResult r;
  ScopedSpan cell_span(SpanName::kCell);
  auto cell = std::make_unique<Cell>(spec, &r.pk, &r);
  cell->Run(&r);
  {
    ScopedSpan s(SpanName::kTeardown);
    cell.reset();
  }
  return r;
}

int64_t SetupOnly(const CellSpec& spec) {
  CellResult timing;
  natto::sim::ParallelPhaseStats pk;
  Cell cell(spec, &pk, &timing);
  return timing.SetupNs();
}

std::string RenderRunStats(const harness::RunStats& s) {
  std::string out;
  AppendDoubles(&out, "high", s.latencies_high_ms);
  AppendDoubles(&out, "low", s.latencies_low_ms);
  for (const auto& [level, v] : s.latencies_by_level_ms) {
    AppendDoubles(&out, ("level" + std::to_string(level)).c_str(), v);
  }
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "committed=%lld/%lld aborted=%lld user_aborted=%lld "
                "failed=%lld/%lld/%lld timeouts=%lld measured=%a "
                "timeline=%zu traces=%zu\n",
                static_cast<long long>(s.committed_high),
                static_cast<long long>(s.committed_low),
                static_cast<long long>(s.aborted_attempts),
                static_cast<long long>(s.user_aborted),
                static_cast<long long>(s.failed),
                static_cast<long long>(s.failed_high),
                static_cast<long long>(s.failed_low),
                static_cast<long long>(s.timeout_aborts), s.measured_seconds,
                s.timeline.size(), s.traces.size());
  out += buf;
  out += s.metrics.ToJson();
  return out;
}

}  // namespace perfbench
