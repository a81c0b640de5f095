#ifndef NATTO_NET_NODE_H_
#define NATTO_NET_NODE_H_

#include <utility>

#include "common/sim_time.h"
#include "net/transport.h"
#include "sim/clock.h"
#include "sim/event_fn.h"

namespace natto::net {

/// Base class for simulated actors (clients, proxies, partition replicas,
/// coordinators). A node lives at a datacenter site, owns a loosely
/// synchronized local clock, and communicates only via the transport.
class Node {
 public:
  Node(Transport* transport, int site, sim::NodeClock clock = {})
      : transport_(transport), site_(site), clock_(clock) {
    id_ = transport_->AddNode(site);
  }

  virtual ~Node() = default;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }
  int site() const { return site_; }
  const sim::NodeClock& clock() const { return clock_; }

  /// True simulated time (only the harness peeks at this; protocol logic
  /// must use LocalNow()).
  SimTime TrueNow() const { return transport_->simulator()->Now(); }

  /// This node's local clock reading.
  SimTime LocalNow() const { return clock_.Read(TrueNow()); }

  /// Sends `bytes` to `to`; `fn` runs at the destination on delivery.
  void SendTo(NodeId to, size_t bytes, sim::EventFn&& fn) {
    transport_->Send(id_, to, bytes, std::move(fn));
  }

  /// Sends kernel-level liveness traffic (echo probes). Pings cut through
  /// `stall` gray faults in both directions — a frozen process's network
  /// stack still answers — which is exactly why probe-based liveness alone
  /// cannot detect a gray-failed peer.
  void SendPing(NodeId to, size_t bytes, sim::EventFn&& fn) {
    transport_->Send(id_, to, bytes, std::move(fn), MessageClass::kPing);
  }

  /// Runs `fn` on this node after `delay`. The event is routed to this
  /// node's site lane, so node timers stay site-confined under the parallel
  /// kernel even when armed from the main thread (e.g. a refresh loop
  /// started at construction).
  void After(SimDuration delay, sim::EventFn&& fn) {
    sim::Simulator* s = transport_->simulator();
    s->ScheduleAtSite(site_, s->Now() + (delay < 0 ? 0 : delay),
                      std::move(fn));
  }

  /// Runs `fn` when this node's local clock reads `local_time` (immediately
  /// if that instant has passed). Site-routed like After().
  void AtLocalTime(SimTime local_time, sim::EventFn&& fn) {
    SimTime true_time = clock_.ToTrueTime(local_time);
    sim::Simulator* s = transport_->simulator();
    if (true_time < s->Now()) true_time = s->Now();
    transport_->simulator()->ScheduleAtSite(site_, true_time, std::move(fn));
  }

  Transport* transport() { return transport_; }

 private:
  Transport* transport_;
  int site_;
  sim::NodeClock clock_;
  NodeId id_;
};

}  // namespace natto::net

#endif  // NATTO_NET_NODE_H_
