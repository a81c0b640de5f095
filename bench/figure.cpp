// figure: the one driver for the paper's tables and figures (Table 1,
// Figs 7-14) and for the ablations and chaos runs beyond them. Each entry of
// kFigures below is one figure: a function that builds its experiment grids
// from QuickConfig(), and a report that prints its tables once the driver
// has run the grids.
//
// Usage:
//   figure <name> [--trace=<path>] [--trace-sample=<N>] [--dsan]
//                 [--dsan-trail=<path>] [--dsan-diff[=<path>]]
//                 [--quick] [--out=<path>] [--schedule=<file>]
//
// The --trace and --dsan families (bench_util.h) apply to every grid
// figure. --quick (CI smoke sizing), --out (JSON summary) and --schedule
// (a ParseSchedule fault script) apply only to the entries that declare
// them; any other flag exits 2. Run sizing comes from the environment:
// NATTO_REPEATS, NATTO_DURATION_S, NATTO_JOBS, NATTO_DSAN and
// NATTO_SIM_THREADS (see QuickConfig()).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "fault/fault.h"
#include "natto/natto.h"
#include "net/prober.h"
#include "net/transport.h"
#include "sim/simulator.h"
#include "workload/retwis.h"
#include "workload/smallbank.h"
#include "workload/ycsbt.h"

using namespace natto;
using namespace natto::bench;
using namespace natto::harness;

namespace {

/// Flags a figure accepts on top of the --trace/--dsan families.
enum FigureFlag : unsigned { kQuick = 1, kOut = 2, kSchedule = 4 };

struct Args {
  TraceArgs trace;
  bool quick = false;
  std::string out_path;       // --out: also write a JSON summary
  std::string schedule_path;  // --schedule: replaces the scripted faults
};

/// One latency-grid table: a row per grid point, a column per system, each
/// cell either an aggregate (mean+-ci95) or a plain value.
struct Table {
  std::string title;
  std::string x_label;
  Aggregate ExperimentResult::* aggregate = nullptr;
  double (*value)(const ExperimentResult&) = nullptr;
  bool failed_rows = false;  // follow each row with its failed-txn counts
};

/// One RunGrid call and what its report needs to print it.
struct Grid {
  std::string tag;  // dsan trail label prefix; "" when a figure has one grid
  std::vector<System> systems;
  std::vector<GridPoint> points;
  std::vector<double> xs;     // row key of each point
  std::vector<Table> tables;  // printed by PrintTables
  std::vector<std::vector<ExperimentResult>> results;  // set by the driver
};

struct Figure {
  const char* name;  // also the name of the binary it replaced
  unsigned flags;    // FigureFlag bits
  std::vector<Grid> (*grids)(const Args&);  // nullptr: not a grid figure
  bool (*report)(const Args&, const std::vector<Grid>&);  // false: exit 1
};

// ---------------------------------------------------------------------------
// Grid building blocks.
// ---------------------------------------------------------------------------

ExperimentConfig At(double rate) {
  ExperimentConfig config = QuickConfig();
  config.input_rate_tps = rate;
  return config;
}

WorkloadFactory Ycsbt(workload::YcsbTWorkload::Options o = {}) {
  return [o]() { return std::make_unique<workload::YcsbTWorkload>(o); };
}

WorkloadFactory Retwis(workload::RetwisWorkload::Options o = {}) {
  return [o]() { return std::make_unique<workload::RetwisWorkload>(o); };
}

WorkloadFactory RetwisUniform() {
  workload::RetwisWorkload::Options o;
  o.uniform_keys = true;
  return Retwis(o);
}

/// A SmallBank point: accounts start with the workload's initial balance.
GridPoint SmallBank(ExperimentConfig config,
                    workload::SmallBankWorkload::Options o = {}) {
  Value initial = o.initial_balance;
  config.default_value = [initial](Key) { return initial; };
  return {config,
          [o]() { return std::make_unique<workload::SmallBankWorkload>(o); }};
}

/// A grid with one point per x, built by `point(x)`.
template <typename PointFn>
Grid Sweep(std::vector<System> systems, std::vector<double> xs,
           PointFn point) {
  Grid g;
  g.systems = std::move(systems);
  for (double x : xs) g.points.push_back(point(x));
  g.xs = std::move(xs);
  return g;
}

/// A one-point grid: one column per system.
Grid Single(std::vector<System> systems, GridPoint point) {
  return Sweep(std::move(systems), {0}, [&](double) { return point; });
}

/// A system column that runs NattoEngine with `options` under `name`.
System NattoVariant(const std::string& name, core::NattoOptions options) {
  return {SystemKind::kNattoRecsf, name, [options](txn::Cluster* c) {
            return std::make_unique<core::NattoEngine>(c, options);
          }};
}

/// The --schedule file when one was given, else `scripted`. A file that
/// cannot be read or parsed exits 1 with the parser's diagnostic.
fault::FaultSchedule ScheduleOr(const Args& args,
                                fault::FaultSchedule scripted) {
  if (args.schedule_path.empty()) return scripted;
  std::ifstream in(args.schedule_path);
  if (!in) {
    std::fprintf(stderr, "cannot read schedule file %s\n",
                 args.schedule_path.c_str());
    std::exit(1);
  }
  std::stringstream buf;
  buf << in.rdbuf();
  fault::FaultSchedule schedule;
  std::string error;
  if (!fault::ParseSchedule(buf.str(), &schedule, &error)) {
    std::fprintf(stderr, "%s: %s\n", args.schedule_path.c_str(),
                 error.c_str());
    std::exit(1);
  }
  return schedule;
}

/// Writes `json` to --out; false (after a diagnostic) if it cannot.
bool WriteOut(const Args& args, const std::string& json) {
  std::FILE* f = std::fopen(args.out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n",
                 args.out_path.c_str());
    return false;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", args.out_path.c_str());
  return true;
}

// ---------------------------------------------------------------------------
// Shared latency-grid printer.
// ---------------------------------------------------------------------------

double GoodputLow(const ExperimentResult& r) { return r.goodput_low_tps.mean; }
double P95HighMean(const ExperimentResult& r) { return r.p95_high_ms.mean; }

void PrintTable(const Grid& g, const Table& t) {
  PrintHeader(t.title, t.x_label, g.systems);
  for (size_t p = 0; p < g.results.size(); ++p) {
    PrintRowStart(g.xs[p]);
    for (const ExperimentResult& r : g.results[p]) {
      if (t.aggregate != nullptr) {
        PrintCell(r.*t.aggregate);
      } else {
        PrintCellValue(t.value(r));
      }
    }
    EndRow();
    if (t.failed_rows) {
      std::printf("  failed:  ");
      for (const ExperimentResult& r : g.results[p]) {
        std::printf(" %16lld", static_cast<long long>(r.failed));
      }
      std::printf("\n");
      std::fflush(stdout);
    }
  }
}

bool PrintTables(const Args&, const std::vector<Grid>& grids) {
  for (const Grid& g : grids) {
    for (const Table& t : g.tables) PrintTable(g, t);
  }
  return true;
}

// ---------------------------------------------------------------------------
// Table 1: the Azure inter-datacenter RTTs, and the Domino-style prober's
// recovery of them (p95 estimates over 10 ms probes with a 1 s window).
// ---------------------------------------------------------------------------

/// Prints the upper triangle of a site x site matrix of `cell(a, b)` values.
void PrintSiteTriangle(const net::LatencyMatrix& m,
                       const std::function<double(int, int)>& cell) {
  std::printf("%6s", "");
  for (int b = 0; b < m.num_sites(); ++b) {
    std::printf(" %6s", m.site_name(b).c_str());
  }
  std::printf("\n");
  for (int a = 0; a < m.num_sites(); ++a) {
    std::printf("%6s", m.site_name(a).c_str());
    for (int b = 0; b < m.num_sites(); ++b) {
      if (b <= a) {
        std::printf(" %6s", "-");
      } else {
        std::printf(" %6.0f", cell(a, b));
      }
    }
    std::printf("\n");
  }
}

bool Table1Report(const Args&, const std::vector<Grid>&) {
  net::LatencyMatrix m = net::LatencyMatrix::AzureFive();
  std::printf("=== Table 1: configured network round-trip delays (ms) ===\n");
  PrintSiteTriangle(m, [&m](int a, int b) { return ToMillis(m.Rtt(a, b)); });

  // Measured one-way estimates from a prober at each site.
  sim::Simulator simulator;
  net::Transport transport(&simulator, &m, net::MakeParetoDelay(0.001),
                           net::TransportOptions{}, 42);
  std::vector<std::unique_ptr<net::Node>> targets;
  std::vector<std::unique_ptr<net::Prober>> probers;
  for (int s = 0; s < m.num_sites(); ++s) {
    targets.push_back(
        std::make_unique<net::Node>(&transport, s, sim::NodeClock(0)));
  }
  for (int s = 0; s < m.num_sites(); ++s) {
    probers.push_back(std::make_unique<net::Prober>(
        &transport, s, sim::NodeClock(0), net::Prober::Options{}));
    for (int t = 0; t < m.num_sites(); ++t) {
      probers.back()->AddTarget(t, targets[t].get());
    }
    probers.back()->Start();
  }
  simulator.RunUntil(Seconds(3));

  std::printf("\n=== Prober p95 one-way estimates x2 (ms; should match the "
              "RTTs above) ===\n");
  PrintSiteTriangle(m, [&probers](int a, int b) {
    return 2 * ToMillis(probers[a]->EstimateDelayTo(b));
  });
  return true;
}

// ---------------------------------------------------------------------------
// Fig 7: 95P latency of high- and low-priority transactions vs input rate,
// (a/b) YCSB+T (6 RMWs on Zipf(0.65) keys, 10% high) on the emulated local
// cluster with the Azure matrix (Sec 5.2.1), (c/d) Retwis and (e/f)
// SmallBank (1M users, 1K hot, 90% hot traffic) on the Azure deployment
// (Sec 5.2.2-5.2.3).
// ---------------------------------------------------------------------------

std::vector<Table> Fig7Tables(const std::string& high, const std::string& low,
                              const std::string& name) {
  return {
      {"Fig 7(" + high + "): 95P latency, HIGH priority, " + name + " (ms)",
       "txn/s", &ExperimentResult::p95_high_ms},
      {"Fig 7(" + low + "): 95P latency, LOW priority, " + name + " (ms)",
       "txn/s", &ExperimentResult::p95_low_ms},
      {"Fig 7(" + low + ") x-axis: committed LOW-priority goodput (txn/s)",
       "txn/s", nullptr, GoodputLow},
  };
}

std::vector<Grid> Fig7Ycsbt(const Args&) {
  auto point = [](double rate) { return GridPoint{At(rate), Ycsbt()}; };
  Grid g = Sweep(AllSystems(), {50, 150, 250, 350}, point);
  g.tables = Fig7Tables("a", "b", "YCSB+T");
  return {g};
}

std::vector<Grid> Fig7Retwis(const Args&) {
  auto point = [](double rate) { return GridPoint{At(rate), Retwis()}; };
  Grid g = Sweep(AzureSystems(), {100, 500, 1000, 1500}, point);
  g.tables = Fig7Tables("c", "d", "Retwis");
  return {g};
}

std::vector<Grid> Fig7SmallBank(const Args&) {
  auto point = [](double rate) { return SmallBank(At(rate)); };
  Grid g = Sweep(AzureSystems(), {500, 1000, 1500, 2000}, point);
  g.tables = Fig7Tables("e", "f", "SmallBank");
  return {g};
}

// ---------------------------------------------------------------------------
// Fig 8: 95P high-priority latency vs Zipfian coefficient (contention),
// (a) YCSB+T @50 txn/s on the local cluster, (b) Retwis @100 (Sec 5.3).
// ---------------------------------------------------------------------------

std::vector<Grid> Fig8(const Args&) {
  const std::vector<double> thetas = {0.65, 0.75, 0.85, 0.95};
  auto ycsbt = [](double theta) {
    workload::YcsbTWorkload::Options o;
    o.zipf_theta = theta;
    return GridPoint{At(50), Ycsbt(o)};
  };
  auto retwis = [](double theta) {
    workload::RetwisWorkload::Options o;
    o.zipf_theta = theta;
    return GridPoint{At(100), Retwis(o)};
  };
  Grid a = Sweep(AllSystems(), thetas, ycsbt);
  a.tag = "a";
  a.tables = {{"Fig 8(a): 95P HIGH-priority latency vs Zipf, YCSB+T @50 (ms)",
               "zipf", &ExperimentResult::p95_high_ms}};
  Grid b = Sweep(AzureSystems(), thetas, retwis);
  b.tag = "b";
  b.tables = {{"Fig 8(b): 95P HIGH-priority latency vs Zipf, Retwis @100 (ms)",
               "zipf", &ExperimentResult::p95_high_ms}};
  return {a, b};
}

// ---------------------------------------------------------------------------
// Fig 9: 95P high-priority latency vs the percentage of high-priority
// transactions, YCSB+T @350 (Sec 5.4).
// ---------------------------------------------------------------------------

std::vector<Grid> Fig9(const Args&) {
  auto point = [](double pct) {
    workload::YcsbTWorkload::Options o;
    o.high_priority_fraction = pct / 100.0;
    return GridPoint{At(350), Ycsbt(o)};
  };
  Grid g = Sweep(PrioritySystems(), {10, 20, 40, 60, 80, 100}, point);
  g.tables = {{"Fig 9: 95P HIGH-priority latency vs high-priority %, "
               "YCSB+T @350 (ms)",
               "high %", &ExperimentResult::p95_high_ms}};
  return {g};
}

// ---------------------------------------------------------------------------
// Fig 10: SmallBank with only sendPayment high priority; 95P high-priority
// latency *increase ratio* relative to the 100 txn/s point (Sec 5.4).
// ---------------------------------------------------------------------------

std::vector<Grid> Fig10(const Args&) {
  auto point = [](double rate) {
    ExperimentConfig config = At(rate);
    config.repeats = 1;  // wide rate sweep; single seed per point
    config.duration = Seconds(10);
    config.warmup = Seconds(2);
    config.cooldown = Seconds(2);
    workload::SmallBankWorkload::Options o;
    o.priority_mode =
        workload::SmallBankWorkload::PriorityMode::kSendPaymentHigh;
    return SmallBank(config, o);
  };
  return {Sweep(PrioritySystems(), {100, 1500}, point)};
}

bool Fig10Report(const Args&, const std::vector<Grid>& grids) {
  const Grid& g = grids[0];
  PrintHeader("Fig 10: 95P HIGH-priority (sendPayment) latency increase vs "
              "the 100 txn/s point (%)",
              "txn/s", g.systems);
  for (size_t p = 0; p < g.results.size(); ++p) {
    PrintRowStart(g.xs[p]);
    for (size_t s = 0; s < g.systems.size(); ++s) {
      double base = P95HighMean(g.results[0][s]);
      double v = P95HighMean(g.results[p][s]);
      PrintCellValue(base > 0 ? (v - base) / base * 100.0 : 0);
    }
    EndRow();
  }
  PrintTable(g, {"Fig 10 raw: 95P HIGH-priority latency (ms)", "txn/s",
                 nullptr, P95HighMean});
  return true;
}

// ---------------------------------------------------------------------------
// Fig 11: 95P high-priority latency vs network delay variance (Pareto
// delays with the Table 1 averages), YCSB+T @350 (Sec 5.5).
// Fig 12: the same vs packet loss, YCSB+T @100 on the emulated 1 Gbps local
// cluster (Sec 5.5). Loss both delays individual messages (TCP
// retransmission timeouts) and collapses effective link throughput (Mathis
// model), which is what saturates the replication-heavy protocols first.
// Fig 13: hybrid-cloud deployment (two sites on a different provider),
// Retwis @1000 (Sec 5.5). The paper reports no delay matrix for the AWS
// sites; the same geography with +-5% uniform per-message jitter models the
// less-controlled cross-provider network.
// ---------------------------------------------------------------------------

std::vector<Grid> Fig11(const Args&) {
  auto point = [](double var) {
    ExperimentConfig config = At(350);
    config.cluster.delay_variance_ratio = var / 100.0;
    return GridPoint{config, Ycsbt()};
  };
  Grid g = Sweep(AzureSystems(), {0, 5, 15, 25, 40}, point);
  g.tables = {{"Fig 11: 95P HIGH-priority latency vs delay variance, "
               "YCSB+T @350 (ms)",
               "var %", &ExperimentResult::p95_high_ms}};
  return {g};
}

std::vector<Grid> Fig12(const Args&) {
  auto point = [](double loss) {
    ExperimentConfig config = At(100);
    config.cluster.transport.packet_loss = loss / 100.0;
    // 1 Gbps local cluster links (Sec 5.1).
    config.cluster.transport.link_bandwidth_bytes_per_sec = 125e6;
    config.cluster.transport.tcp_flows_per_link = 16;
    return GridPoint{config, Ycsbt()};
  };
  Grid g = Sweep(AzureSystems(), {0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0}, point);
  g.tables = {{"Fig 12: 95P HIGH-priority latency vs packet loss, "
               "YCSB+T @100 (ms)",
               "loss %", &ExperimentResult::p95_high_ms, nullptr,
               /*failed_rows=*/true}};
  return {g};
}

std::vector<Grid> Fig13(const Args&) {
  ExperimentConfig config = At(1000);
  config.matrix = net::LatencyMatrix::HybridAwsAzure();
  config.cluster.uniform_jitter = 0.05;
  Grid g = Single(AzureSystems(), {config, Retwis()});
  g.tables = {{"Fig 13: 95P HIGH-priority latency, hybrid AWS+Azure, "
               "Retwis @1000 (ms)",
               "", &ExperimentResult::p95_high_ms}};
  return {g};
}

// ---------------------------------------------------------------------------
// Fig 14: peak committed throughput vs number of partitions. Three
// datacenters with 4/6/8 ms RTTs, uniform-key Retwis, and ~25 us of server
// CPU per message (a gRPC-ish budget) so that throughput is bounded by
// message processing (Sec 5.6). One point per (partitions, offered rate);
// a partition count's peak is its best committed rate over the offered
// rates.
// ---------------------------------------------------------------------------

constexpr int kFig14Partitions[] = {2, 4, 8};
constexpr double kFig14Offered[] = {4000, 10000};

std::vector<Grid> Fig14(const Args&) {
  Grid g;
  g.systems = AzureSystems();
  for (int parts : kFig14Partitions) {
    for (double rate : kFig14Offered) {
      ExperimentConfig config = At(rate);
      config.repeats = 1;
      config.duration = Seconds(6);
      config.warmup = Seconds(2);
      config.cooldown = Seconds(2);
      config.drain = Seconds(5);
      config.matrix = net::LatencyMatrix::LocalTriangle();
      config.num_partitions = parts;
      config.cluster.transport.node_cost_per_message = Micros(25);
      g.points.push_back({config, RetwisUniform()});
      g.xs.push_back(parts + rate / 1e6);  // wire-cost row key: parts.rate
    }
  }
  return {g};
}

bool Fig14Report(const Args&, const std::vector<Grid>& grids) {
  const Grid& g = grids[0];
  PrintHeader("Fig 14: peak committed throughput vs #partitions, Retwis "
              "uniform (txn/s)",
              "parts", g.systems);
  for (size_t pi = 0; pi < std::size(kFig14Partitions); ++pi) {
    PrintRowStart(kFig14Partitions[pi]);
    for (size_t s = 0; s < g.systems.size(); ++s) {
      double peak = 0;
      for (size_t ri = 0; ri < std::size(kFig14Offered); ++ri) {
        peak = std::max(peak, g.results[pi * std::size(kFig14Offered) + ri][s]
                                  .goodput_total_tps.mean);
      }
      PrintCellValue(peak);
    }
    EndRow();
  }
  PrintWireCostReport("Fig 14 wire cost", "parts.r", g.xs, g.systems,
                      g.results);
  return true;
}

// ---------------------------------------------------------------------------
// Ablations beyond the paper's figures.
// ---------------------------------------------------------------------------

/// Natto feature ablation: each mechanism's contribution at high contention
/// (YCSB+T, Zipf 0.95, @50 — the Fig 8(a) regime), with the mechanism
/// counters that explain why each step helps.
std::vector<Grid> NattoFeatures(const Args&) {
  core::NattoOptions pa_no_est = core::NattoOptions::Pa();
  pa_no_est.pa_completion_estimate = false;
  std::vector<System> variants = {
      NattoVariant("Natto-TS", core::NattoOptions::TsOnly()),
      NattoVariant("Natto-LECSF", core::NattoOptions::Lecsf()),
      NattoVariant("Natto-PA", core::NattoOptions::Pa()),
      NattoVariant("Natto-PA(no-est)", pa_no_est),
      NattoVariant("Natto-CP", core::NattoOptions::Cp()),
      NattoVariant("Natto-RECSF", core::NattoOptions::Recsf()),
  };
  workload::YcsbTWorkload::Options o;
  o.zipf_theta = 0.95;
  return {Single(variants, {At(50), Ycsbt(o)})};
}

/// Per-run mean of a NattoServer counter summed over partitions: the
/// `natto.server.p<N>.<name>` counters in the cell's merged metrics.
double ServerCounter(const ExperimentResult& r, const std::string& name) {
  const std::string prefix = "natto.server.p";
  const std::string suffix = "." + name;
  int64_t sum = 0;
  for (const auto& [key, value] : r.metrics.counters) {
    if (key.rfind(prefix, 0) == 0 && key.size() > suffix.size() &&
        key.compare(key.size() - suffix.size(), suffix.size(), suffix) == 0) {
      sum += value;
    }
  }
  return static_cast<double>(sum) / static_cast<double>(r.metrics.runs);
}

bool NattoFeaturesReport(const Args&, const std::vector<Grid>& grids) {
  const Grid& g = grids[0];
  std::printf("=== Natto feature ablation, YCSB+T zipf=0.95 @50 txn/s ===\n");
  std::printf("%-17s %10s %10s %8s %8s %8s %6s %6s %8s %8s\n", "variant",
              "p95hi(ms)", "p95lo(ms)", "PA", "PAsupp", "CP", "CPok",
              "CPfail", "RECSF", "ordAbrt");
  for (size_t i = 0; i < g.systems.size(); ++i) {
    const ExperimentResult& r = g.results[0][i];
    std::printf("%-17s %10.1f %10.1f %8.0f %8.0f %8.0f %6.0f %6.0f %8.0f "
                "%8.0f\n",
                g.systems[i].name.c_str(), r.p95_high_ms.mean,
                r.p95_low_ms.mean, ServerCounter(r, "priority_aborts"),
                ServerCounter(r, "pa_suppressed"),
                ServerCounter(r, "conditional_prepares"),
                ServerCounter(r, "cp_satisfied"),
                ServerCounter(r, "cp_failed"),
                ServerCounter(r, "recsf_forwards"),
                ServerCounter(r, "order_violation_aborts"));
    std::fflush(stdout);
  }
  return true;
}

/// Domino-style arrival-time estimator (Sec 2.2): the p95 estimator vs
/// lower and higher quantiles under 15% Pareto delay variance, YCSB+T @350.
/// Lower quantiles underestimate arrival times, so transactions arrive late
/// and abort on timestamp-order violations; higher ones over-delay
/// processing.
constexpr double kQuantiles[] = {0.50, 0.75, 0.90, 0.95, 0.99};

std::vector<Grid> Estimator(const Args&) {
  std::vector<System> systems;
  for (double q : kQuantiles) {
    core::NattoOptions o = core::NattoOptions::Recsf();
    o.estimate_quantile = q;
    systems.push_back(NattoVariant("Natto-RECSF", o));
  }
  ExperimentConfig config = At(350);
  config.cluster.delay_variance_ratio = 0.15;
  return {Single(systems, {config, Ycsbt()})};
}

bool EstimatorReport(const Args&, const std::vector<Grid>& grids) {
  std::printf(
      "=== Estimator ablation: quantile vs latency/aborts "
      "(YCSB+T @350, 15%% delay variance) ===\n");
  std::printf("%-10s %12s %12s %14s\n", "quantile", "p95hi(ms)", "p95lo(ms)",
              "abort frac");
  for (size_t i = 0; i < std::size(kQuantiles); ++i) {
    const ExperimentResult& r = grids[0].results[0][i];
    std::printf("%-10.2f %12.1f %12.1f %14.2f\n", kQuantiles[i],
                r.p95_high_ms.mean, r.p95_low_ms.mean, r.abort_fraction.mean);
  }
  std::fflush(stdout);
  return true;
}

/// Multi-priority-level extension (the paper's future work, Sec 3.1): three
/// levels on YCSB+T (70% low / 20% medium / 10% high) @350. Prioritizing
/// systems should order the per-level p95s (EXPERIMENTS.md records what a
/// run shows).
std::vector<Grid> Multilevel(const Args&) {
  std::vector<System> systems;
  for (SystemKind kind :
       {SystemKind::kTwoPl, SystemKind::kTwoPlPreempt,
        SystemKind::kCarouselBasic, SystemKind::kNattoRecsf}) {
    systems.push_back(MakeSystem(kind));
  }
  workload::YcsbTWorkload::Options o;
  o.high_priority_fraction = 0.10;
  o.medium_priority_fraction = 0.20;
  return {Single(systems, {At(350), Ycsbt(o)})};
}

bool MultilevelReport(const Args&, const std::vector<Grid>& grids) {
  const Grid& g = grids[0];
  std::printf("=== Multi-level extension: per-level 95P latency, YCSB+T "
              "70/20/10 @350 (ms) ===\n");
  std::printf("%-16s %12s %12s %12s\n", "system", "low", "medium", "high");
  for (size_t s = 0; s < g.systems.size(); ++s) {
    const auto& by_level = g.results[0][s].p95_by_level_ms;
    auto p95 = [&by_level](int level) {
      auto it = by_level.find(level);
      return it == by_level.end() ? 0.0 : it->second.mean;
    };
    std::printf("%-16s %12.1f %12.1f %12.1f\n", g.systems[s].name.c_str(),
                p95(0), p95(1), p95(2));
    std::fflush(stdout);
  }
  return true;
}

/// Batching ablation: wire cost and latency of link batching + Raft group
/// commit on a replication-heavy Fig 14 cell (LocalTriangle, uniform
/// Retwis, 4 partitions, 25 us/message server CPU, 10k txn/s offered). Rows
/// sweep the flush triggers from off (the byte-identical default) through
/// increasingly aggressive settings.
struct BatchSetting {
  const char* name;
  size_t max_batch_bytes;  // 0 = batching off
  SimDuration max_batch_delay;
  SimDuration group_commit_delay;
};

constexpr BatchSetting kBatchSettings[] = {
    {"off", 0, 0, 0},
    {"batch4k", 4096, Micros(200), 0},
    {"batch4k+gc", 4096, Micros(200), Micros(200)},
    {"batch16k+gc", 16384, Millis(1), Micros(500)},
};

std::vector<Grid> Batching(const Args& args) {
  Grid g;
  g.systems = {MakeSystem(SystemKind::kNattoRecsf)};
  for (const BatchSetting& s : kBatchSettings) {
    ExperimentConfig config = At(10000);
    if (args.quick) {
      // CI smoke: the cell saturates a single leader core, so sim-seconds
      // are expensive — a 2 s measurement window at 10k txn/s still commits
      // thousands of txns, plenty for a stable msgs/txn ratio.
      config.repeats = 1;
      config.duration = Seconds(2);
      config.warmup = Millis(500);
      config.cooldown = Millis(500);
      config.drain = Seconds(2);
    }
    config.matrix = net::LatencyMatrix::LocalTriangle();
    config.num_partitions = 4;
    config.cluster.transport.node_cost_per_message = Micros(25);
    config.cluster.transport.max_batch_bytes = s.max_batch_bytes;
    config.cluster.transport.max_batch_delay = s.max_batch_delay;
    config.cluster.raft.group_commit_delay = s.group_commit_delay;
    g.points.push_back({config, RetwisUniform()});
  }
  return {g};
}

bool BatchingReport(const Args& args, const std::vector<Grid>& grids) {
  const auto& results = grids[0].results;
  std::printf("\n=== Batching ablation: Natto-RECSF, Retwis uniform, "
              "4 partitions, 10k txn/s offered ===\n");
  std::printf("%-12s %12s %14s %12s %12s %12s\n", "setting", "msgs/txn",
              "wire msgs/txn", "bytes/txn", "goodput", "p95 low ms");
  std::vector<WireCost> costs;
  for (size_t i = 0; i < std::size(kBatchSettings); ++i) {
    const ExperimentResult& r = results[i][0];
    costs.push_back(ComputeWireCost(r));
    const WireCost& w = costs.back();
    std::printf("%-12s %12.1f %14.1f %12.0f %12.1f %12.1f\n",
                kBatchSettings[i].name, w.msgs_per_txn, w.wire_msgs_per_txn,
                w.bytes_per_txn, r.goodput_total_tps.mean, r.p95_low_ms.mean);
  }
  double best_msgs_red = 0, best_wire_red = 0;
  for (size_t i = 1; i < costs.size(); ++i) {
    if (costs[0].msgs_per_txn > 0) {
      best_msgs_red = std::max(
          best_msgs_red,
          100.0 * (1.0 - costs[i].msgs_per_txn / costs[0].msgs_per_txn));
    }
    if (costs[0].wire_msgs_per_txn > 0) {
      best_wire_red = std::max(
          best_wire_red, 100.0 * (1.0 - costs[i].wire_msgs_per_txn /
                                            costs[0].wire_msgs_per_txn));
    }
  }
  std::printf("best reduction vs off: %.1f%% msgs/txn, %.1f%% wire "
              "msgs/txn\n", best_msgs_red, best_wire_red);
  std::fflush(stdout);
  if (args.out_path.empty()) return true;

  std::string json = "{\n  \"bench\": \"ablation_batching\",\n"
                     "  \"cell\": \"Natto-RECSF/LocalTriangle/Retwis-"
                     "uniform/4p/10000tps\",\n  \"rows\": [\n";
  char buf[512];
  for (size_t i = 0; i < costs.size(); ++i) {
    const BatchSetting& s = kBatchSettings[i];
    const ExperimentResult& r = results[i][0];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"setting\": \"%s\", \"max_batch_bytes\": %zu, "
        "\"max_batch_delay_us\": %lld, \"group_commit_delay_us\": %lld, "
        "\"msgs_per_txn\": %.2f, \"wire_msgs_per_txn\": %.2f, "
        "\"bytes_per_txn\": %.0f, \"goodput_tps\": %.1f, "
        "\"p95_low_ms\": %.2f}%s\n",
        s.name, s.max_batch_bytes, static_cast<long long>(s.max_batch_delay),
        static_cast<long long>(s.group_commit_delay), costs[i].msgs_per_txn,
        costs[i].wire_msgs_per_txn, costs[i].bytes_per_txn,
        r.goodput_total_tps.mean, r.p95_low_ms.mean,
        i + 1 < costs.size() ? "," : "");
    json += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "  ],\n  \"best_reduction_vs_off_pct\": "
                "{\"msgs_per_txn\": %.1f, \"wire_msgs_per_txn\": %.1f}\n}\n",
                best_msgs_red, best_wire_red);
  json += buf;
  return WriteOut(args, json);
}

// ---------------------------------------------------------------------------
// Chaos runs (not paper figures: the paper measures fault-free performance).
// ---------------------------------------------------------------------------

/// A failover-style client: bounded per-attempt waits with capped backoff,
/// and an availability timeline at 1 s resolution.
void FailoverClient(ExperimentConfig* config) {
  config->request_timeout = Seconds(1);
  config->backoff_base = Millis(50);
  config->timeline_bucket = Seconds(1);
}

/// Prints the scripted (or --schedule) faults of the figure's first point.
void PrintSchedule(const Grid& g) {
  std::printf(
      "fault schedule:\n%s",
      fault::FormatSchedule(g.points[0].config.cluster.fault_schedule)
          .c_str());
}

/// Failover: goodput and tail latency through a crash -> re-election ->
/// recovery -> partition -> heal script, for one representative of every
/// protocol family. It exercises Sec 4's failover semantics end to end: the
/// partition-0 leader dies mid-run, a new leader is elected, engines
/// re-attach, clients time out, back off and re-route, and goodput recovers
/// after the heal. The default script is scaled to the run duration so
/// NATTO_DURATION_S keeps its shape: crash at 20%, recover at 45%,
/// partition s0|s1 at 55%, heal at 75%.
std::vector<Grid> Failover(const Args& args) {
  ExperimentConfig config = At(200);
  FailoverClient(&config);
  const SimDuration d = config.duration;
  fault::FaultSchedule scripted;
  scripted.CrashReplica(d / 5, /*partition=*/0, /*replica=*/0)
      .RecoverReplica(d * 45 / 100, 0, 0)
      .PartitionSites(d * 55 / 100, /*site_a=*/0, /*site_b=*/1)
      .HealSites(d * 75 / 100, 0, 1);
  config.cluster.fault_schedule = ScheduleOr(args, scripted);
  return {Single(FailoverSystems(), {config, Ycsbt()})};
}

bool FailoverReport(const Args&, const std::vector<Grid>& grids) {
  const Grid& g = grids[0];
  const std::vector<ExperimentResult>& row = g.results[0];
  PrintSchedule(g);
  PrintHeader("Failover: goodput through crash/recover/partition/heal, "
              "YCSB+T @200 (txn/s)",
              "metric", g.systems);
  auto metric_row = [&row](const char* label, auto cell) {
    std::printf("%-10s", label);
    for (const ExperimentResult& r : row) cell(r);
    EndRow();
  };
  metric_row("goodput",
             [](const ExperimentResult& r) { PrintCell(r.goodput_total_tps); });
  metric_row("p95 low",
             [](const ExperimentResult& r) { PrintCell(r.p95_low_ms); });
  metric_row("failed", [](const ExperimentResult& r) {
    PrintCellValue(static_cast<double>(r.failed));
  });
  metric_row("timeouts", [](const ExperimentResult& r) {
    PrintCellValue(static_cast<double>(r.timeout_aborts));
  });
  metric_row("elections", [](const ExperimentResult& r) {
    PrintCellValue(
        static_cast<double>(r.metrics.counter("fault.leader_elections")));
  });

  size_t buckets = 0;
  for (const ExperimentResult& r : row) {
    buckets = std::max(buckets, r.timeline.size());
  }
  PrintHeader("Failover timeline: committed txn/s per 1 s bucket "
              "(all repeats)",
              "t (s)", g.systems);
  double repeats = static_cast<double>(g.points[0].config.repeats);
  for (size_t b = 0; b < buckets; ++b) {
    PrintRowStart(static_cast<double>(b));
    for (const ExperimentResult& r : row) {
      PrintCellValue(
          b < r.timeline.size()
              ? static_cast<double>(r.timeline[b].committed) / repeats
              : 0);
    }
    EndRow();
  }
  PrintHeader("Failover timeline: p99 commit latency per 1 s bucket (ms)",
              "t (s)", g.systems);
  for (size_t b = 0; b < buckets; ++b) {
    PrintRowStart(static_cast<double>(b));
    for (const ExperimentResult& r : row) {
      PrintCellValue(b < r.timeline.size()
                         ? Percentile(r.timeline[b].latencies_ms, 0.99)
                         : 0);
    }
    EndRow();
  }
  return true;
}

/// Gray failure: per-priority SLO attainment through a scripted fail-slow
/// + gray-stall + half-open-partition sequence (scaled to the run), with
/// the defense stack off vs on. A leader that is slow-but-alive never trips
/// fail-stop detection, so without defenses every priority class eats the
/// degraded tail together.
///   20%..45%  the partition-0 leader goes fail-slow (x30 service time; it
///             still heartbeats on time, so no election fires on its own)
///   50%..62%  the same replica gray-stalls: service traffic freezes but
///             pings keep answering (probe-based liveness stays green)
///   70%..85%  half-open link: s0 -> s1 drops, s1 -> s0 keeps flowing
/// The defenses (all off in the first row): phi-accrual failure detection
/// with follower suspicion elections, Raft pre-vote with commit-latency
/// fail-away, and client hedging with an adaptive per-priority delay.
///
/// The SLO targets are deliberately loose — a x30 leader turns ~100 ms
/// commits into seconds — so they separate "degraded but bounded" from
/// "unbounded gray tail", not fast from slow.
constexpr double kSloP99HighMs = 4000.0;
constexpr double kSloP99LowMs = 8000.0;
constexpr const char* kDefenseSettings[] = {"defenses off", "defenses on"};

std::vector<Grid> GrayFail(const Args& args) {
  Grid g;
  g.systems = {MakeSystem(SystemKind::kNattoRecsf)};
  for (int on = 0; on < 2; ++on) {
    ExperimentConfig config = At(200);
    if (args.quick) {
      // CI smoke: one repeat is enough — the scenario is scripted, and the
      // CI availability assertion has a wide margin to the floor.
      config.repeats = 1;
      config.duration = Seconds(16);
      config.warmup = Seconds(2);
      config.cooldown = Seconds(2);
      config.drain = Seconds(10);
    }
    // The retry budget is deliberately tight (the default 100 attempts x
    // 1 s timeout outlasts any gray window, which would make availability
    // read 1.0 no matter what): a transaction that can't land in 8 attempts
    // counts as failed, so availability reflects the gray degradation.
    FailoverClient(&config);
    config.max_attempts = 8;
    const SimDuration d = config.duration;
    fault::FaultSchedule scripted;
    scripted
        .SlowReplica(d / 5, /*partition=*/0, /*replica=*/0, /*factor=*/30.0,
                     /*duration=*/d / 4)
        .StallReplica(d / 2, /*partition=*/0, /*replica=*/0,
                      /*duration=*/d * 12 / 100)
        .PartitionOneWay(d * 70 / 100, /*from_site=*/0, /*to_site=*/1)
        .HealSites(d * 85 / 100, 0, 1);
    config.cluster.fault_schedule = ScheduleOr(args, scripted);
    if (on == 1) {
      // Thresholds sit well above healthy-run operating points (commit
      // latency ~tens of ms, phi ~0 between heartbeats) so the defenses are
      // quiet until the faults land.
      config.cluster.gray.enabled = true;
      config.cluster.raft.pre_vote = true;
      config.cluster.raft.fail_away_commit_latency = Millis(300);
      config.hedge_percentile = 0.95;
    }
    g.points.push_back({config, Ycsbt()});
  }
  return {g};
}

double Availability(int64_t committed, int64_t failed) {
  int64_t total = committed + failed;
  return total > 0
             ? static_cast<double>(committed) / static_cast<double>(total)
             : 1.0;
}

bool GrayFailReport(const Args& args, const std::vector<Grid>& grids) {
  const Grid& g = grids[0];
  PrintSchedule(g);
  auto counter = [](const ExperimentResult& r, const char* name) {
    return static_cast<double>(r.metrics.counter(name));
  };
  std::printf("\n=== Gray failure: Natto-RECSF, YCSB+T @200 txn/s, "
              "slow-leader + stall + half-open link ===\n");
  std::printf("%-14s %12s %12s %12s %12s %8s %10s %10s %10s %8s\n",
              "setting", "p99 high ms", "p99 low ms", "avail high",
              "avail low", "failed", "hedges", "hedge_wins", "transfers",
              "elections");
  for (int on = 0; on < 2; ++on) {
    const ExperimentResult& r = g.results[on][0];
    std::printf("%-14s %12.1f %12.1f %12.4f %12.4f %8lld %10.0f %10.0f "
                "%10.0f %8.0f\n",
                kDefenseSettings[on], r.p99_high_ms.mean, r.p99_low_ms.mean,
                Availability(r.committed_high, r.failed_high),
                Availability(r.committed_low, r.failed_low),
                static_cast<long long>(r.failed),
                counter(r, "client.hedges"), counter(r, "client.hedge_wins"),
                counter(r, "raft.leader_transfers"),
                counter(r, "fault.leader_elections"));
  }

  std::printf("\n=== Per-priority SLO attainment (p99 target: high < %.0f "
              "ms, low < %.0f ms) ===\n",
              kSloP99HighMs, kSloP99LowMs);
  std::printf("%-14s %12s %12s\n", "setting", "high", "low");
  for (int on = 0; on < 2; ++on) {
    const ExperimentResult& r = g.results[on][0];
    std::printf("%-14s %12s %12s\n", kDefenseSettings[on],
                r.p99_high_ms.mean < kSloP99HighMs ? "met" : "MISSED",
                r.p99_low_ms.mean < kSloP99LowMs ? "met" : "MISSED");
  }

  // Availability timeline: where in the scenario each setting lost txns.
  size_t buckets = std::max(g.results[0][0].timeline.size(),
                            g.results[1][0].timeline.size());
  std::printf("\n=== Timeline: committed txn/s per 1 s bucket ===\n");
  std::printf("%-8s %14s %14s\n", "t (s)", kDefenseSettings[0],
              kDefenseSettings[1]);
  double repeats = static_cast<double>(g.points[0].config.repeats);
  for (size_t b = 0; b < buckets; ++b) {
    std::printf("%-8zu", b);
    for (int on = 0; on < 2; ++on) {
      const auto& timeline = g.results[on][0].timeline;
      double committed =
          b < timeline.size() ? static_cast<double>(timeline[b].committed)
                              : 0;
      std::printf(" %14.1f", committed / repeats);
    }
    std::printf("\n");
  }
  std::fflush(stdout);
  if (args.out_path.empty()) return true;

  std::string json = "{\n  \"bench\": \"fig_grayfail\",\n"
                     "  \"cell\": \"Natto-RECSF/AzureFive/YCSB+T/200tps\","
                     "\n  \"slo_p99_high_ms\": " +
                     std::to_string(kSloP99HighMs) +
                     ",\n  \"slo_p99_low_ms\": " +
                     std::to_string(kSloP99LowMs) + ",\n  \"rows\": [\n";
  char buf[512];
  for (int on = 0; on < 2; ++on) {
    const ExperimentResult& r = g.results[on][0];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"setting\": \"%s\", \"defenses\": %s, "
        "\"p99_high_ms\": %.2f, \"p99_low_ms\": %.2f, "
        "\"availability_high\": %.6f, \"availability_low\": %.6f, "
        "\"failed\": %lld, \"hedges\": %.0f, \"hedge_wins\": %.0f, "
        "\"leader_transfers\": %.0f, \"elections\": %.0f, "
        "\"stall_deferrals\": %.0f}%s\n",
        kDefenseSettings[on], on == 1 ? "true" : "false", r.p99_high_ms.mean,
        r.p99_low_ms.mean, Availability(r.committed_high, r.failed_high),
        Availability(r.committed_low, r.failed_low),
        static_cast<long long>(r.failed), counter(r, "client.hedges"),
        counter(r, "client.hedge_wins"), counter(r, "raft.leader_transfers"),
        counter(r, "fault.leader_elections"),
        counter(r, "net.stall_deferrals"), on == 0 ? "," : "");
    json += buf;
  }
  json += "  ]\n}\n";
  return WriteOut(args, json);
}

// ---------------------------------------------------------------------------
// The figure table and the driver.
// ---------------------------------------------------------------------------

constexpr Figure kFigures[] = {
    {"table1_network_delays", 0, nullptr, Table1Report},
    {"fig7_ycsbt_input_rate", 0, Fig7Ycsbt, PrintTables},
    {"fig7_retwis_input_rate", 0, Fig7Retwis, PrintTables},
    {"fig7_smallbank_input_rate", 0, Fig7SmallBank, PrintTables},
    {"fig8_zipf_contention", 0, Fig8, PrintTables},
    {"fig9_priority_mix", 0, Fig9, PrintTables},
    {"fig10_sendpayment", 0, Fig10, Fig10Report},
    {"fig11_delay_variance", 0, Fig11, PrintTables},
    {"fig12_packet_loss", 0, Fig12, PrintTables},
    {"fig13_hybrid_cloud", 0, Fig13, PrintTables},
    {"fig14_throughput", 0, Fig14, Fig14Report},
    {"ablation_natto_features", 0, NattoFeatures, NattoFeaturesReport},
    {"ablation_estimator", 0, Estimator, EstimatorReport},
    {"ablation_multilevel", 0, Multilevel, MultilevelReport},
    {"ablation_batching", kQuick | kOut, Batching, BatchingReport},
    {"fig_failover", kSchedule, Failover, FailoverReport},
    {"fig_grayfail", kQuick | kOut | kSchedule, GrayFail, GrayFailReport},
};

[[noreturn]] void Usage() {
  std::fprintf(stderr, "usage: figure <name> [flags]\nfigures:\n");
  for (const Figure& f : kFigures) std::fprintf(stderr, "  %s\n", f.name);
  std::exit(2);
}

/// Parses the flags after the figure name. The --trace/--dsan families are
/// accepted by every grid figure; the rest only where `f.flags` has them.
Args ParseArgs(const Figure& f, int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string* path = nullptr;
    if (f.grids != nullptr && ParseTraceArg(arg, &args.trace)) continue;
    if ((f.flags & kQuick) && arg == "--quick") {
      args.quick = true;
      continue;
    }
    if ((f.flags & kOut) && arg.rfind("--out=", 0) == 0) {
      path = &args.out_path;
    } else if ((f.flags & kSchedule) && arg.rfind("--schedule=", 0) == 0) {
      path = &args.schedule_path;
    }
    if (path != nullptr) {
      *path = arg.substr(arg.find('=') + 1);
      if (!path->empty()) continue;
      std::fprintf(stderr, "%s requires a path\n", arg.c_str());
      std::exit(2);
    }
    std::string supported =
        f.grids != nullptr ? "--trace=<path>, --trace-sample=<N>, --dsan, "
                             "--dsan-trail=<path>, --dsan-diff[=<path>]"
                           : "none";
    if (f.flags & kQuick) supported += ", --quick";
    if (f.flags & kOut) supported += ", --out=<path>";
    if (f.flags & kSchedule) supported += ", --schedule=<file>";
    std::fprintf(stderr, "%s: unknown argument %s (supported: %s)\n", f.name,
                 arg.c_str(), supported.c_str());
    std::exit(2);
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) Usage();
  const Figure* figure = nullptr;
  for (const Figure& f : kFigures) {
    if (argv[1] == std::string(f.name)) figure = &f;
  }
  if (figure == nullptr) {
    std::fprintf(stderr, "unknown figure %s\n", argv[1]);
    Usage();
  }
  const Args args = ParseArgs(*figure, argc, argv);
  std::vector<Grid> grids;
  if (figure->grids != nullptr) grids = figure->grids(args);

  // Every grid runs with the --trace/--dsan settings; traces and dsan
  // trails are collected in grid order, row-major within a grid.
  std::vector<obs::TxnTrace> traces;
  std::vector<LabeledTrail> trails;
  for (Grid& g : grids) {
    for (GridPoint& p : g.points) ApplyTraceArgs(args.trace, &p.config);
    g.results = RunGrid(g.points, g.systems);
    CollectTraces(g.results, &traces);
    CollectDsanTrails(g.systems, g.results, g.tag, &trails);
  }
  if (!figure->report(args, grids)) return 1;
  WriteTraces(args.trace, traces);
  return FinishDsanTrails(args.trace.dsan, trails) ? 0 : 1;
}
