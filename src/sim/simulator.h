#ifndef NATTO_SIM_SIMULATOR_H_
#define NATTO_SIM_SIMULATOR_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/sim_time.h"
#include "sim/calendar_queue.h"
#include "sim/event_fn.h"

namespace natto::sim {

class DeterminismLedger;
class ParallelKernel;
struct ParallelPhaseStats;

/// Configuration for the intra-run parallel kernel (sim/parallel_kernel.h,
/// DESIGN.md §4.11). Default-constructed options describe the serial
/// kernel; ConfigureParallel with num_threads <= 1 is a no-op, and with
/// num_threads > 1 requires num_sites >= 1.
struct ParallelOptions {
  /// Worker threads, including the caller (which participates in windows).
  int num_threads = 1;
  /// Site partitions owning their own CalendarQueue (>= 1 whenever the
  /// kernel is installed).
  int num_sites = 0;
  /// Conservative PDES lookahead: a callback firing at time T on one site
  /// may schedule onto *another* site no earlier than T + lookahead. 0
  /// forces every event through the serialized path (correct, no speedup).
  SimDuration lookahead = 0;
};

/// Deterministic discrete-event simulator. All nodes (clients, servers,
/// proxies, replicas) share one `Simulator`; events scheduled at equal times
/// run in scheduling order (FIFO), which keeps runs exactly reproducible.
///
/// The kernel is single-threaded by design: the evaluation quantities
/// (latency distributions under WAN delays) depend on message timing, not on
/// host parallelism, and determinism makes property tests possible.
///
/// Internals (DESIGN.md §4.8): events are pooled nodes in a calendar queue
/// (64 µs buckets, overflow heap past a ~524 ms horizon) and callbacks are
/// move-only small-buffer `EventFn`s, so steady-state scheduling performs
/// zero heap allocations. The executed (time, seq) sequence is identical to
/// the seed kernel's binary heap — sim_kernel_test.cc locksteps the two.
///
/// An event has one lifecycle: scheduled, then fired. There is no
/// cancellation; a timer that may be superseded captures an epoch and
/// returns early when the epoch has moved on (raft's election timer, the
/// transport's link-batch timer).
class Simulator {
 public:
  using Callback = EventFn;

  // Both out-of-line (parallel_kernel.cc): ParallelKernel is incomplete
  // here and unique_ptr needs the full type to destroy it.
  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time. Starts at 0. Inside a parallel window this is
  /// the executing site's local clock (the serial Now() an event at that
  /// timestamp would observe).
  SimTime Now() const { return parallel_ == nullptr ? now_ : ParallelNow(); }

  /// Schedules `cb` to run at absolute simulated time `t` (>= Now()).
  /// Scheduling in the past is a programming error (NATTO_DCHECK); release
  /// builds clamp to Now(), mirroring ScheduleAfter's negative-delay clamp.
  void ScheduleAt(SimTime t, Callback&& cb);

  /// Site-routing sentinels for ScheduleAtSite.
  static constexpr int kGlobalSite = -1;   // main-thread global queue
  static constexpr int kInheritSite = -2;  // same site as the caller

  /// ScheduleAt variant that names the partition the event belongs to.
  /// Serial kernel: identical to ScheduleAt.
  /// Site-parallel kernel: the event lands in `site`'s calendar queue and
  /// fires on that site's lane. Cross-site schedules from a worker must
  /// satisfy t >= window_end (guaranteed when t >= Now() + lookahead).
  void ScheduleAtSite(int site, SimTime t, Callback&& cb);

  /// Schedules `cb` to run `delay` after Now(). Negative delays are clamped
  /// to zero (a message can never arrive in the past).
  void ScheduleAfter(SimDuration delay, Callback&& cb);

  /// Runs `fn` in exact serial order with respect to every event and every
  /// other DeferOrdered call. On the serial kernel (and from main-thread
  /// serialized fires under the parallel kernel) this is an immediate
  /// inline call; from a worker-lane callback the closure is recorded and
  /// replayed at the window barrier at its event's canonical position.
  ///
  /// Use this for order-sensitive side effects on state shared across
  /// sites: histogram records, floating-point accumulations, vector
  /// appends. Contract: the closure must capture by value, must not
  /// schedule events, must not draw from instrumented RNGs, and
  /// the state it touches must only ever be mutated through DeferOrdered
  /// (all three violations trip NATTO_DCHECKs in the merge).
  void DeferOrdered(Callback&& fn);

  /// Runs events until the queue drains or `Stop()` is called.
  void Run();

  /// Runs all events with time <= `t`, then sets Now() to `t`.
  void RunUntil(SimTime t);

  /// Requests that `Run()`/`RunUntil()` return after the current event.
  /// Under the site-parallel kernel a Stop() from a worker-lane callback
  /// takes effect at the next window barrier: the in-flight window finishes
  /// (its merged outcome is deterministic), then the run loop returns.
  void Stop() { stopped_.store(true, std::memory_order_relaxed); }

  /// Installs the parallel kernel (sim/parallel_kernel.h). Must be called
  /// before any event is scheduled or executed; no-op when
  /// options.num_threads <= 1, keeping the exact serial code path.
  void ConfigureParallel(const ParallelOptions& options);

  /// True when the site-parallel kernel is installed. Transport uses this
  /// to insist on its stateless fast path.
  bool site_parallel() const { return parallel_ != nullptr; }

  /// Points the site-parallel kernel at a phase-profiling sink
  /// (sim/parallel_kernel.h). Null (the default) disables collection; a
  /// no-op on the serial kernel. Timing never feeds back into execution,
  /// so determinism is unaffected.
  void SetParallelPhaseStats(ParallelPhaseStats* stats);

  /// Execution lane of the calling thread: 0 on the main thread (serial
  /// kernel, and between windows), 1 + site inside a worker-executed
  /// event. Indexes per-lane pools (e.g. Transport envelopes).
  int CurrentLane() const;

  /// Number of events not yet executed. Counts all partitions under the
  /// site-parallel kernel.
  size_t pending_events() const {
    return parallel_ == nullptr ? queue_.size() : ParallelPending();
  }

  /// Total events executed since construction (every scheduled event
  /// executes exactly once, including a superseded timer's no-op firing).
  uint64_t executed_events() const { return executed_; }

  /// Attaches a determinism-sanitizer ledger (sim/dsan.h). Every executed
  /// event is folded into the ledger's digest; null (the default) is the
  /// zero-overhead off state — one branch per event, nothing else.
  void set_ledger(DeterminismLedger* ledger) { ledger_ = ledger; }
  DeterminismLedger* ledger() const { return ledger_; }

  /// Sentinel parent for events scheduled outside any event callback.
  static constexpr uint64_t kNoParent = ~uint64_t{0};

 private:
  friend class ParallelKernel;

  /// Runs the node's callback in place, then recycles the node into the
  /// queue's pool.
  void Fire(EventNode* n);

  /// Parallel-kernel delegates, defined in parallel_kernel.cc (the only TU
  /// that sees the full ParallelKernel type).
  SimTime ParallelNow() const;
  size_t ParallelPending() const;
  void ParallelSchedule(int site, SimTime t, Callback&& cb);
  void ParallelDefer(Callback&& fn);
  void ParallelRun(SimTime limit, bool settle);

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t executed_ = 0;
  /// seq of the event currently firing (causal parent for events its
  /// callback schedules); kNoParent between events.
  uint64_t firing_seq_ = kNoParent;
  /// Atomic so a worker-lane callback can request Stop(); relaxed is enough
  /// (the window barrier's mutex orders the main thread's read).
  std::atomic<bool> stopped_{false};
  DeterminismLedger* ledger_ = nullptr;
  CalendarQueue queue_;
  std::unique_ptr<ParallelKernel> parallel_;
};

}  // namespace natto::sim

#endif  // NATTO_SIM_SIMULATOR_H_
