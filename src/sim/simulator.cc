#include "sim/simulator.h"

#include <utility>

#include "common/logging.h"
#include "sim/dsan.h"

namespace natto::sim {

void Simulator::ScheduleAt(SimTime t, Callback&& cb) {
  if (parallel_ != nullptr) {
    ParallelSchedule(kInheritSite, t, std::move(cb));
    return;
  }
  NATTO_DCHECK(t >= now_) << "ScheduleAt in the past: t=" << t
                          << " Now()=" << now_;
  if (t < now_) t = now_;
  queue_.Push(t, next_seq_++, std::move(cb), firing_seq_);
}

void Simulator::ScheduleAtSite(int site, SimTime t, Callback&& cb) {
  if (parallel_ != nullptr) {
    ParallelSchedule(site, t, std::move(cb));
    return;
  }
  // Serial kernel: site routing is a no-op; one queue serves everything.
  ScheduleAt(t, std::move(cb));
}

void Simulator::ScheduleAfter(SimDuration delay, Callback&& cb) {
  if (delay < 0) delay = 0;
  // Now(), not now_: on a parallel worker lane "now" is the site clock.
  ScheduleAt(Now() + delay, std::move(cb));
}

void Simulator::DeferOrdered(Callback&& fn) {
  if (parallel_ != nullptr) {
    ParallelDefer(std::move(fn));
    return;
  }
  fn();
}

void Simulator::Fire(EventNode* n) {
  NATTO_DCHECK(n->time >= now_);
  now_ = n->time;
  queue_.AdvanceTo(now_);
  ++executed_;
  if (ledger_ != nullptr) {
    ledger_->RecordEvent(n->time, n->seq, n->parent_seq);
  }
  // The callback runs in place: the popped node sits on no list (not even
  // the free list), so events it schedules draw other nodes and the
  // closure never moves. Recycling waits until it returns. firing_seq_
  // tags those schedules with this event as their causal parent (consumed
  // by the dsan ledger).
  firing_seq_ = n->seq;
  n->fn();
  firing_seq_ = kNoParent;
  queue_.Recycle(n);
}

void Simulator::Run() {
  if (parallel_ != nullptr) {
    ParallelRun(kSimTimeMax, /*settle=*/false);
    return;
  }
  stopped_ = false;
  while (!stopped_) {
    EventNode* n = queue_.PopIfAtMost(kSimTimeMax);
    if (n == nullptr) break;
    Fire(n);
  }
}

void Simulator::RunUntil(SimTime t) {
  if (parallel_ != nullptr) {
    ParallelRun(t, /*settle=*/true);
    return;
  }
  stopped_ = false;
  while (!stopped_) {
    EventNode* n = queue_.PopIfAtMost(t);
    if (n == nullptr) break;
    Fire(n);
  }
  if (!stopped_ && now_ < t) {
    now_ = t;
    queue_.AdvanceTo(now_);
  }
}

}  // namespace natto::sim
