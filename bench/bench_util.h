#ifndef NATTO_BENCH_BENCH_UTIL_H_
#define NATTO_BENCH_BENCH_UTIL_H_

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/systems.h"
#include "obs/trace.h"
#include "sim/dsan.h"

namespace natto::bench {

/// Default experiment sizing for the `figure` driver. The paper runs 10
/// repeats x 60 s with 10 s head/tail trim; that is ~20x the compute of this
/// quick default. Set NATTO_REPEATS=10 NATTO_DURATION_S=60 to reproduce the
/// paper's full setting.
///
/// Every grid figure fans its independent (system, datapoint, repeat)
/// simulation cells across a thread pool (harness::ParallelRunner).
/// NATTO_JOBS caps the worker count (default: all hardware threads; 1 =
/// serial). The printed tables are bit-identical for any job count.
inline harness::ExperimentConfig QuickConfig() {
  harness::ExperimentConfig config;
  config.repeats = 2;
  config.duration = Seconds(24);
  config.warmup = Seconds(4);
  config.cooldown = Seconds(4);
  config.drain = Seconds(20);
  harness::ApplyEnvOverrides(&config);
  return config;
}

inline void PrintHeader(const std::string& title, const std::string& x_label,
                        const std::vector<harness::System>& systems) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("%-10s", x_label.c_str());
  for (const auto& s : systems) std::printf(" %16s", s.name.c_str());
  std::printf("\n");
}

inline void PrintRowStart(double x) { std::printf("%-10.4g", x); }

inline void PrintCell(const harness::Aggregate& a) {
  std::printf(" %10.1f+-%4.0f", a.mean, a.ci95);
}

inline void PrintCellValue(double v) { std::printf(" %16.1f", v); }

inline void EndRow() {
  std::printf("\n");
  std::fflush(stdout);
}

/// Wire cost of one experiment cell, derived from the transport counters in
/// its merged metrics snapshot and the committed-transaction count. With
/// link batching off, wire_msgs_per_txn == msgs_per_txn (every protocol
/// message is its own wire frame).
struct WireCost {
  double msgs_per_txn = 0;       // protocol messages per committed txn
  double wire_msgs_per_txn = 0;  // framed wire messages (batches) per txn
  double bytes_per_txn = 0;      // framed wire bytes per committed txn
};

inline WireCost ComputeWireCost(const harness::ExperimentResult& r) {
  WireCost w;
  if (r.committed <= 0) return w;
  double committed = static_cast<double>(r.committed);
  w.msgs_per_txn =
      static_cast<double>(r.metrics.counter("net.messages_sent")) / committed;
  w.wire_msgs_per_txn =
      static_cast<double>(r.metrics.counter("net.batches_sent")) / committed;
  w.bytes_per_txn =
      static_cast<double>(r.metrics.counter("net.bytes_sent")) / committed;
  return w;
}

/// Prints one wire-cost table per metric (msgs/txn, wire msgs/txn,
/// bytes/txn) for a result grid, rows keyed by `xs` (same x-axis as the
/// latency tables).
inline void PrintWireCostReport(
    const std::string& title, const std::string& x_label,
    const std::vector<double>& xs,
    const std::vector<harness::System>& systems,
    const std::vector<std::vector<harness::ExperimentResult>>& results) {
  struct Metric {
    const char* name;
    double WireCost::* field;
  };
  const Metric metrics[] = {
      {"msgs/txn", &WireCost::msgs_per_txn},
      {"wire msgs/txn", &WireCost::wire_msgs_per_txn},
      {"bytes/txn", &WireCost::bytes_per_txn},
  };
  for (const Metric& m : metrics) {
    PrintHeader(title + " — " + m.name, x_label, systems);
    for (size_t p = 0; p < results.size(); ++p) {
      PrintRowStart(xs[p]);
      for (const auto& r : results[p]) {
        PrintCellValue(ComputeWireCost(r).*(m.field));
      }
      EndRow();
    }
  }
}

/// Command-line determinism-sanitizer knobs (DESIGN.md §4.10) shared by
/// `figure` and `nattosim`:
///   --dsan               attach the ledger and print per-cell digests after
///                        the run (stderr; tables stay byte-identical)
///   --dsan-trail=<path>  also write every cell's trail to a labeled trail
///                        file for later --dsan-diff runs
///   --dsan-diff[=<path>] diff this run's trails: against a saved trail file
///                        when a path is given, else `nattosim` re-runs the
///                        grid serial-vs-parallel and compares the two
struct DsanArgs {
  bool enabled = false;
  bool diff = false;
  std::string trail_path;     // --dsan-trail output, empty = don't write
  std::string baseline_path;  // --dsan-diff=<path> input, empty = self-diff
};

/// Consumes one --dsan* argument into `args`; false if `arg` is not a dsan
/// flag (the caller decides whether that is an error).
inline bool ParseDsanArg(const std::string& arg, DsanArgs* args) {
  if (arg == "--dsan") {
    args->enabled = true;
  } else if (arg == "--dsan-trail" || arg == "--dsan-trail=") {
    // A trail flag without a path would silently open an empty filename;
    // fail loudly with the exact spelling instead of falling through to the
    // generic unknown-argument error (bare) or writing to "" (trailing =).
    std::fprintf(stderr,
                 "%s requires a path: --dsan-trail=<path>\n", arg.c_str());
    std::exit(2);
  } else if (arg.rfind("--dsan-trail=", 0) == 0) {
    args->enabled = true;
    args->trail_path = arg.substr(13);
  } else if (arg == "--dsan-diff") {
    args->enabled = true;
    args->diff = true;
  } else if (arg.rfind("--dsan-diff=", 0) == 0) {
    args->enabled = true;
    args->diff = true;
    args->baseline_path = arg.substr(12);
  } else {
    return false;
  }
  return true;
}

inline void ApplyDsanArgs(const DsanArgs& args,
                          harness::ExperimentConfig* config) {
  // OR, don't assign: NATTO_DSAN=1 (ApplyEnvOverrides) may already have
  // enabled the ledger, and the absence of a --dsan flag must not turn it
  // back off.
  if (args.enabled) config->cluster.dsan.enabled = true;
}

/// Command-line tracing knobs shared by `figure` and `nattosim`:
///   --trace=<path>       write sampled transaction traces after the run
///                        (a `.jsonl` path selects flat JSON lines; anything
///                        else selects Chrome trace_event JSON)
///   --trace-sample=<N>   record 1-in-N transactions (default 64)
/// Tracing is off unless --trace is given, and enabling it changes none of
/// the printed numbers: the tracer only buffers events against sim time.
/// The --dsan* family (above) rides along so every grid figure accepts it.
struct TraceArgs {
  std::string path;
  int sample_period = 64;
  DsanArgs dsan;
  bool enabled() const { return !path.empty(); }
};

/// What a numeric flag accepts (see ParseNumberFlag).
struct NumberRule {
  bool integer;        // also at most INT_MAX
  double min;          // lower bound
  bool min_exclusive;  // the value must exceed `min` rather than reach it
  const char* expected;
};
inline constexpr NumberRule kPositive = {false, 0, true, "a number > 0"};
inline constexpr NumberRule kNonNegative = {false, 0, false, "a number >= 0"};
inline constexpr NumberRule kAtLeastOne = {true, 1, false, "an integer >= 1"};
inline constexpr NumberRule kNonNegativeInt = {true, 0, false,
                                               "an integer >= 0"};

/// Strict numeric flag value: all of `value` must parse as a finite number
/// that satisfies `rule`. Anything else (empty, trailing junk, out of range)
/// exits 2 with a diagnostic naming the flag, instead of a silent default.
inline double ParseNumberFlag(const char* flag, const std::string& value,
                              const NumberRule& rule) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  const bool ok =
      !value.empty() && end == value.c_str() + value.size() &&
      std::isfinite(v) && (rule.min_exclusive ? v > rule.min : v >= rule.min) &&
      (!rule.integer ||
       (std::floor(v) == v && v <= std::numeric_limits<int>::max()));
  if (!ok) {
    std::fprintf(stderr, "invalid %s=%s (expected %s)\n", flag,
                 value.c_str(), rule.expected);
    std::exit(2);
  }
  return v;
}

/// Consumes one --trace, --trace-sample or --dsan* argument into `args`;
/// false if `arg` is none of them. A malformed value exits 2.
inline bool ParseTraceArg(const std::string& arg, TraceArgs* args) {
  if (arg.rfind("--trace=", 0) == 0) {
    args->path = arg.substr(8);
    if (args->path.empty()) {
      std::fprintf(stderr, "--trace requires a path: --trace=<path>\n");
      std::exit(2);
    }
  } else if (arg.rfind("--trace-sample=", 0) == 0) {
    args->sample_period = static_cast<int>(
        ParseNumberFlag("--trace-sample", arg.substr(15), kAtLeastOne));
  } else {
    return ParseDsanArg(arg, &args->dsan);
  }
  return true;
}

inline void ApplyTraceArgs(const TraceArgs& args,
                           harness::ExperimentConfig* config) {
  config->cluster.trace.enabled = args.enabled();
  config->cluster.trace.sample_period = args.sample_period;
  ApplyDsanArgs(args.dsan, config);
}

/// Appends the traces of a RunGrid result grid in row-major (point, then
/// system) order — the same deterministic order the grid itself merges in.
inline void CollectTraces(
    const std::vector<std::vector<harness::ExperimentResult>>& results,
    std::vector<obs::TxnTrace>* out) {
  for (const auto& row : results) {
    for (const auto& r : row) {
      out->insert(out->end(), r.traces.begin(), r.traces.end());
    }
  }
}

/// Writes the collected traces to args.path. No-op when tracing is off.
inline void WriteTraces(const TraceArgs& args,
                        const std::vector<obs::TxnTrace>& traces) {
  if (!args.enabled()) return;
  const std::string& p = args.path;
  const bool jsonl =
      p.size() >= 6 && p.compare(p.size() - 6, 6, ".jsonl") == 0;
  const std::string out =
      jsonl ? obs::TraceJsonLines(traces) : obs::ChromeTraceJson(traces);
  std::FILE* f = std::fopen(p.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", p.c_str());
    std::exit(1);
  }
  std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "wrote %zu transaction traces to %s\n", traces.size(),
               p.c_str());
}

/// One cell's dsan trail plus the label that identifies the cell across
/// runs: "p<point>.<system>.r<repeat>" (optionally tag-prefixed when a figure
/// runs more than one grid).
struct LabeledTrail {
  std::string label;
  sim::DsanTrail trail;
};

/// Appends the dsan trails of a RunGrid result grid in the same row-major
/// deterministic order as CollectTraces. `tag` prefixes labels ("" for the
/// common single-grid case).
inline void CollectDsanTrails(
    const std::vector<harness::System>& systems,
    const std::vector<std::vector<harness::ExperimentResult>>& results,
    const std::string& tag, std::vector<LabeledTrail>* out) {
  for (size_t p = 0; p < results.size(); ++p) {
    for (size_t s = 0; s < results[p].size(); ++s) {
      const auto& dsan = results[p][s].dsan;
      for (size_t r = 0; r < dsan.size(); ++r) {
        std::string label = tag.empty() ? "p" : tag + ".p";
        label += std::to_string(p) + "." + systems[s].name + ".r" +
                 std::to_string(r);
        out->push_back(LabeledTrail{label, dsan[r]});
      }
    }
  }
}

/// Labeled multi-trail file: `dsan-trails v1` header, then per trail a
/// `label <name>` line followed by its SerializeTrail block.
inline bool WriteDsanTrails(const std::string& path,
                            const std::vector<LabeledTrail>& trails) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::string out = "dsan-trails v1\n";
  for (const LabeledTrail& t : trails) {
    out += "label " + t.label + "\n";
    out += sim::SerializeTrail(t.trail);
  }
  std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "wrote %zu dsan trails to %s\n", trails.size(),
               path.c_str());
  return true;
}

inline bool ReadDsanTrails(const std::string& path,
                           std::vector<LabeledTrail>* out) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);

  // Split into label blocks; each block body round-trips through ParseTrail.
  size_t pos = text.find('\n');
  if (pos == std::string::npos || text.substr(0, pos) != "dsan-trails v1") {
    std::fprintf(stderr, "%s: not a dsan-trails v1 file\n", path.c_str());
    return false;
  }
  ++pos;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.rfind("label ", 0) != 0) {
      std::fprintf(stderr, "%s: expected a label line, got '%s'\n",
                   path.c_str(), line.c_str());
      return false;
    }
    size_t body_begin = pos;
    size_t body_end = text.find("\nlabel ", pos);
    body_end = body_end == std::string::npos ? text.size() : body_end + 1;
    LabeledTrail t;
    t.label = line.substr(6);
    if (!sim::ParseTrail(text.substr(body_begin, body_end - body_begin),
                         &t.trail)) {
      std::fprintf(stderr, "%s: bad trail block for label %s\n", path.c_str(),
                   t.label.c_str());
      return false;
    }
    out->push_back(std::move(t));
    pos = body_end;
  }
  return true;
}

/// Diffs two labeled trail sets (matched by label; `label_a`/`label_b` name
/// the runs, e.g. "serial" vs "jobs=8"). A label that repeats (columns that
/// share a system name) matches its k-th occurrence on the other side.
/// Prints a FormatDivergenceReport for every divergent cell and returns the
/// number of divergences; labels present on only one side count as
/// divergences too.
inline int DiffDsanTrailSets(const std::string& label_a,
                             const std::vector<LabeledTrail>& a,
                             const std::string& label_b,
                             const std::vector<LabeledTrail>& b) {
  int divergences = 0;
  std::map<std::string, int> seen;  // occurrences of each label in `a`
  for (const LabeledTrail& ta : a) {
    int k = seen[ta.label]++;
    const LabeledTrail* tb = nullptr;
    for (const LabeledTrail& cand : b) {
      if (cand.label == ta.label && k-- == 0) {
        tb = &cand;
        break;
      }
    }
    if (tb == nullptr) {
      std::fprintf(stderr, "dsan: cell %s present only in %s\n",
                   ta.label.c_str(), label_a.c_str());
      ++divergences;
      continue;
    }
    sim::DsanDivergence d = sim::DiffTrails(ta.trail, tb->trail);
    if (!d.comparable || d.diverged) {
      ++divergences;
      std::string report = sim::FormatDivergenceReport(
          label_a + ":" + ta.label, ta.trail, label_b + ":" + tb->label,
          tb->trail, d);
      std::fprintf(stderr, "dsan: cell %s DIVERGED\n%s", ta.label.c_str(),
                   report.c_str());
    }
  }
  if (a.size() != b.size()) {
    std::fprintf(stderr, "dsan: trail counts differ (%zu in %s, %zu in %s)\n",
                 a.size(), label_a.c_str(), b.size(), label_b.c_str());
  }
  return divergences;
}

/// Post-run dsan handling on an already-collected trail set: print per-cell
/// digests, write the trail file, and diff against a saved baseline when one
/// was given. Returns false when a baseline diff found divergences (the
/// drivers turn that into a nonzero exit).
inline bool FinishDsanTrails(const DsanArgs& args,
                             const std::vector<LabeledTrail>& trails) {
  // Non-empty trails with no --dsan flag means NATTO_DSAN=1 enabled the
  // ledger through the environment; still print the per-cell digests.
  if (!args.enabled && trails.empty()) return true;
  for (const LabeledTrail& t : trails) {
    std::fprintf(stderr, "dsan: %s events=%llu digest=%016llx rng=%llu\n",
                 t.label.c_str(),
                 static_cast<unsigned long long>(t.trail.events),
                 static_cast<unsigned long long>(t.trail.final_digest),
                 static_cast<unsigned long long>(t.trail.rng_draws));
  }
  if (!args.trail_path.empty()) {
    if (!WriteDsanTrails(args.trail_path, trails)) return false;
  }
  if (!args.baseline_path.empty()) {
    std::vector<LabeledTrail> baseline;
    if (!ReadDsanTrails(args.baseline_path, &baseline)) return false;
    int n = DiffDsanTrailSets("baseline", baseline, "run", trails);
    if (n > 0) {
      std::fprintf(stderr, "dsan: %d divergent cell(s)\n", n);
      return false;
    }
    std::fprintf(stderr, "dsan: all %zu cells match the baseline\n",
                 trails.size());
  }
  return true;
}

}  // namespace natto::bench

#endif  // NATTO_BENCH_BENCH_UTIL_H_
