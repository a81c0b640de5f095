// Lockstep tests for the site-parallel PDES kernel (sim/parallel_kernel.h,
// DESIGN.md §4.11).
//
// The driver below runs one site-structured workload — per-site event
// chains, same-site live and deferred schedules, cross-site schedules — on
// a plain serial Simulator and on Simulators configured with 2 and 4 kernel
// threads, and requires identical per-site execution traces and a
// byte-identical dsan trail (the trail's digest folds the *merged* (time,
// seq, parent) stream, so trail equality proves the parallel kernel
// reproduces the exact serial total order, not just per-site orders). The
// workload respects the kernel's determinism contract: cross-site
// schedules land at Now() + lookahead or later.

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/sim_time.h"
#include "sim/dsan.h"
#include "sim/simulator.h"

namespace natto::sim {
namespace {

constexpr int kSites = 4;
constexpr SimDuration kLookahead = Millis(10);

struct SiteResult {
  // Per-site (fire time, marker) traces; worker-side appends are safe
  // because one worker owns a site for a whole window.
  std::vector<std::vector<std::pair<SimTime, uint64_t>>> traces;
  SimTime final_now = 0;
  uint64_t executed = 0;
  size_t pending = 0;
  std::string trail;  // SerializeTrail of the run's dsan ledger
};

// One deterministic site workload, parameterized only by the kernel thread
// count (1 = the untouched serial kernel).
class SiteWorkload {
 public:
  SiteWorkload(uint64_t seed, int threads) : seed_(seed), threads_(threads) {}

  SiteResult Run() {
    Simulator sim;
    sim_ = &sim;
    DsanOptions dopts;
    dopts.enabled = true;
    dopts.checkpoint_every = 64;  // many checkpoints: fine-grained equality
    DeterminismLedger ledger(dopts);
    if (threads_ > 1) {
      // Must precede any scheduling (the kernel owns event routing).
      sim.ConfigureParallel(ParallelOptions{threads_, kSites, kLookahead});
    }
    sim.set_ledger(&ledger);

    Rng root(seed_);
    root.Instrument(ledger.RegisterRngStream("test.sites"));
    sites_.resize(kSites);
    for (int s = 0; s < kSites; ++s) sites_[s].rng = root.Fork();

    // Seed per-site chains from the main thread.
    for (int s = 0; s < kSites; ++s) {
      for (int k = 0; k < 6; ++k) {
        ScheduleTo(s, Millis(1) + s * 17 + k * Millis(3));
      }
    }
    sim.RunUntil(Millis(30));
    // Mid-run main-thread activity: more chains.
    for (int s = 0; s < kSites; ++s) {
      ScheduleTo(s, sim.Now() + Millis(2) + s * 13);
    }
    sim.Run();

    SiteResult out;
    out.traces.resize(kSites);
    for (int s = 0; s < kSites; ++s) {
      out.traces[s] = std::move(sites_[s].trace);
    }
    out.final_now = sim.Now();
    out.executed = sim.executed_events();
    out.pending = sim.pending_events();
    out.trail = SerializeTrail(ledger.Trail());
    sim_ = nullptr;
    return out;
  }

 private:
  struct Site {
    Rng rng{0};
    int budget = 600;
    uint64_t next_marker = 0;
    std::vector<std::pair<SimTime, uint64_t>> trace;
  };

  // Schedules the next chain event for `dst` at absolute time `t`. Consumes
  // the *destination* site's budget and marker counter when called from the
  // main thread or from a callback on `dst` itself; cross-site callers pass
  // their own site's accounting via `acct`.
  void ScheduleTo(int dst, SimTime t, int acct = -1) {
    Site& a = sites_[acct < 0 ? dst : acct];
    if (a.budget == 0) return;
    --a.budget;
    uint64_t marker =
        (static_cast<uint64_t>(acct < 0 ? dst : acct) << 32) | a.next_marker++;
    sim_->ScheduleAtSite(dst, t,
                         [this, dst, marker]() { OnFire(dst, marker); });
  }

  void OnFire(int s, uint64_t marker) {
    Site& st = sites_[s];
    st.trace.emplace_back(sim_->Now(), marker);
    // 1..2 ops per event keeps the chains slightly supercritical, so runs
    // last until the per-site budgets drain instead of dying out early.
    int ops = static_cast<int>(st.rng.UniformInt(1, 2));
    for (int i = 0; i < ops; ++i) {
      int64_t roll = st.rng.UniformInt(0, 99);
      if (roll < 35) {
        // Same-site schedule; short delays land inside the current window
        // (live path), longer ones defer to the barrier.
        SimDuration d = 1 + st.rng.UniformInt(0, 7999);
        if (roll < 17) {
          ScheduleTo(s, sim_->Now() + d);
        } else {
          // The inherit-site route (plain ScheduleAfter) must behave
          // exactly like naming the site.
          if (st.budget == 0) continue;
          --st.budget;
          uint64_t m = (static_cast<uint64_t>(s) << 32) | st.next_marker++;
          sim_->ScheduleAfter(d, [this, s, m]() { OnFire(s, m); });
        }
      } else if (roll < 55) {
        // Cross-site: the lookahead bound makes this legal mid-window.
        int dst = (s + 1) % kSites;
        SimTime t = sim_->Now() + kLookahead + st.rng.UniformInt(0, 4000);
        ScheduleTo(dst, t, /*acct=*/s);
      } else if (roll < 70) {
        // Short same-site delay: always inside the current window, so the
        // live path (provisional seq, resolved at the merge).
        ScheduleTo(s, sim_->Now() + 1 + st.rng.UniformInt(0, 2000));
      } else if (roll < 78) {
        // Same-site at or past Now() + lookahead: always past the window
        // end, so the deferred path (canonical seq pushed at the barrier).
        // The wide spread stretches the run over more windows.
        ScheduleTo(s,
                   sim_->Now() + kLookahead + st.rng.UniformInt(0, Millis(30)));
      } else if (roll < 85) {
        // Cross-site two sites over: a second deferred stream per site.
        int dst = (s + 2) % kSites;
        SimTime t = sim_->Now() + kLookahead + st.rng.UniformInt(0, 4000);
        ScheduleTo(dst, t, /*acct=*/s);
      }
      // else: no-op.
    }
  }

  uint64_t seed_;
  int threads_;
  Simulator* sim_ = nullptr;
  std::vector<Site> sites_;
};

TEST(ParallelKernelLockstepTest, MatchesSerialAtAnyThreadCount) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SiteResult serial = SiteWorkload(seed, 1).Run();
    ASSERT_GT(serial.executed, 100u) << "degenerate workload, seed " << seed;
    for (int threads : {2, 4}) {
      SiteResult par = SiteWorkload(seed, threads).Run();
      for (int s = 0; s < kSites; ++s) {
        EXPECT_EQ(par.traces[s], serial.traces[s])
            << "site " << s << " trace, seed " << seed << ", " << threads
            << " threads";
      }
      EXPECT_EQ(par.final_now, serial.final_now) << "seed " << seed;
      EXPECT_EQ(par.executed, serial.executed) << "seed " << seed;
      EXPECT_EQ(par.pending, serial.pending) << "seed " << seed;
      // Trail equality pins the merged global order, not just per-site
      // orders: the digest folds every (time, seq, parent) in serial
      // sequence and each checkpoint carries the reconstructed cumulative
      // RNG draw count.
      EXPECT_EQ(par.trail, serial.trail)
          << "dsan trail diverged, seed " << seed << ", " << threads
          << " threads";
    }
  }
}

// ---------------------------------------------------------------------------
// Directed edge cases.
// ---------------------------------------------------------------------------

TEST(ParallelKernelTest, ScheduleAtSiteOnSerialKernelIsScheduleAt) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAtSite(2, Millis(5), [&]() { order.push_back(0); });
  sim.ScheduleAt(Millis(5), [&]() { order.push_back(1); });
  sim.ScheduleAtSite(Simulator::kGlobalSite, Millis(5),
                     [&]() { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sim.Now(), Millis(5));
}

TEST(ParallelKernelTest, RejectsParallelKernelWithoutSites) {
  // The kernel has no serial fallback mode: a caller without site
  // partitions keeps the serial kernel (num_threads <= 1) instead.
  for (int sites : {0, -1}) {
    EXPECT_DEATH(
        {
          Simulator sim;
          sim.ConfigureParallel(ParallelOptions{4, sites, Millis(1)});
        },
        "at least one site partition");
  }
}

TEST(ParallelKernelTest, CrossSiteScheduleAtLookaheadFiresInOrder) {
  Simulator sim;
  sim.ConfigureParallel(ParallelOptions{4, 2, kLookahead});
  // One log per site: the 1 ms and 2 ms events share a window and run
  // concurrently on their own lanes, so they must not share a container.
  using Log = std::vector<std::pair<SimTime, int>>;
  Log site0, site1;
  sim.ScheduleAtSite(0, Millis(1), [&]() {
    site0.emplace_back(sim.Now(), 0);
    sim.ScheduleAtSite(1, sim.Now() + kLookahead,
                       [&]() { site1.emplace_back(sim.Now(), 2); });
  });
  sim.ScheduleAtSite(1, Millis(2), [&]() { site1.emplace_back(sim.Now(), 1); });
  sim.Run();
  EXPECT_EQ(site0, (Log{{Millis(1), 0}}));
  EXPECT_EQ(site1, (Log{{Millis(2), 1}, {Millis(1) + kLookahead, 2}}));
  EXPECT_EQ(sim.Now(), Millis(1) + kLookahead);
  EXPECT_EQ(sim.executed_events(), 3u);
}

TEST(ParallelKernelTest, StopFromWorkerTakesEffectAtTheBarrier) {
  Simulator sim;
  sim.ConfigureParallel(ParallelOptions{4, 4, kLookahead});
  std::atomic<int> fired{0};  // bumped from concurrent site lanes
  // One event per site inside a single window; site 2's callback stops the
  // run. The whole window still completes (its merged outcome must be
  // deterministic), then Run() returns with the later events pending.
  for (int s = 0; s < 4; ++s) {
    sim.ScheduleAtSite(s, Millis(1) + s * 10, [&sim, &fired, s]() {
      ++fired;
      if (s == 2) sim.Stop();
    });
    sim.ScheduleAtSite(s, Millis(50) + s, [&fired]() { ++fired; });
  }
  sim.Run();
  EXPECT_EQ(fired.load(), 4) << "the in-flight window completes before stopping";
  EXPECT_EQ(sim.pending_events(), 4u);
  sim.Run();  // resume drains the rest
  EXPECT_EQ(fired.load(), 8);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.Now(), Millis(50) + 3);
}

TEST(ParallelKernelTest, RunUntilStopsWindowsAtTheLimit) {
  Simulator sim;
  sim.ConfigureParallel(ParallelOptions{4, 2, kLookahead});
  std::atomic<int> fired{0};  // bumped from concurrent site lanes
  sim.ScheduleAtSite(0, Millis(3), [&]() { ++fired; });
  sim.ScheduleAtSite(1, Millis(3), [&]() { ++fired; });
  sim.ScheduleAtSite(0, Millis(3) + 1, [&]() { ++fired; });
  sim.RunUntil(Millis(3));
  // Events exactly at the limit fire; the one just past it stays queued
  // even though the lookahead window would have covered it.
  EXPECT_EQ(fired.load(), 2);
  EXPECT_EQ(sim.Now(), Millis(3));
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.Run();
  EXPECT_EQ(fired.load(), 3);
  EXPECT_EQ(sim.Now(), Millis(3) + 1);
}

}  // namespace
}  // namespace natto::sim
