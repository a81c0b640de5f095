#ifndef NATTO_NET_TRANSPORT_H_
#define NATTO_NET_TRANSPORT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/sim_time.h"
#include "net/delay_model.h"
#include "net/latency_matrix.h"
#include "obs/metrics.h"
#include "sim/event_fn.h"
#include "sim/simulator.h"

namespace natto::net {

/// Identifies a registered node (client, proxy, replica, ...).
using NodeId = int;

/// Knobs for the simulated network and server capacity.
struct TransportOptions {
  /// Probability that a message's first transmission is lost; each loss adds
  /// a TCP-like retransmission timeout (doubling on consecutive losses).
  double packet_loss = 0.0;

  /// Base retransmission timeout (Linux TCP minimum RTO is 200 ms).
  SimDuration retransmit_timeout = Millis(200);

  /// Per-directed-link capacity in bytes/second; 0 disables the capacity
  /// model. Under packet loss the effective capacity additionally collapses
  /// following the Mathis TCP-throughput model, which is what saturates
  /// replication-heavy systems first in Fig 12. An active SetLinkOverlay
  /// `extra_loss` on a link is folded into that link's effective loss
  /// probability for the duration of the overlay.
  double link_bandwidth_bytes_per_sec = 0.0;

  /// Number of parallel TCP flows aggregated per link for the Mathis model.
  int tcp_flows_per_link = 16;

  /// TCP maximum segment size used by the Mathis model.
  double tcp_mss_bytes = 1460.0;

  /// CPU cost a node pays to process one received message; 0 disables the
  /// server-capacity model. Nodes are FIFO servers: messages queue when the
  /// node is busy. This is what bounds peak throughput in Fig 14 and makes
  /// Carousel's leaders the bottleneck at high retry rates.
  SimDuration node_cost_per_message = 0;

  /// Additional CPU cost per KiB of message payload.
  SimDuration node_cost_per_kib = 0;

  /// Applies the destination CPU cost model at wire-arrival time on the
  /// receiver's side instead of at send time. Semantically the FIFO service
  /// discipline is then ordered by arrival rather than by send: the
  /// receiver's `node_free_at_` clock is only ever read and written by
  /// events on the receiver's site lane, which is what lets the
  /// site-parallel kernel run the CPU-cost model without cross-site state.
  /// The two modes produce (slightly) different event timings, so a given
  /// configuration must pick one mode for all runs; txn::Cluster enables
  /// this exactly for site-parallel-eligible configurations, at every
  /// thread count, keeping serial and parallel runs of one config
  /// byte-identical.
  bool deferred_node_service = false;

  /// Link batching (RPC formation, after Motr's rpc/formation.c): when > 0,
  /// messages on the same directed site pair coalesce into one wire batch.
  /// A batch flushes when its framed bytes reach this threshold, when
  /// `max_batch_delay` elapses since the batch was opened, on an explicit
  /// Flush(), or when a crash/partition hits its destination. 0 (default)
  /// disables batching entirely: every message is its own wire frame and
  /// the transport is byte-identical to the pre-batching build.
  size_t max_batch_bytes = 0;

  /// Upper bound on how long a message may wait in an open batch before the
  /// batch is flushed (the latency the batching amortization may cost).
  SimDuration max_batch_delay = Millis(1);

  /// Framing overhead charged per batched message (length prefix + routing
  /// header inside the shared frame), so `bytes_sent` reflects framed wire
  /// bytes. Only applied when batching is on; the unbatched path charges
  /// exactly the caller-provided payload bytes, as before.
  size_t framing_bytes_per_message = 8;

  /// Base per-message service cost assumed for a node under a `slow` gray
  /// fault when the CPU cost model is otherwise disabled (both node_cost_*
  /// knobs zero). The fail-slow stretch multiplies the node's real
  /// per-message cost when one is configured, and this stand-in otherwise,
  /// so `slow factor=K` bites even in delay-only topologies.
  SimDuration slow_default_service_cost = Micros(100);
};

/// Wire-level class of a message. `kPing` models kernel-level liveness
/// traffic (the prober's echo probes): a node under a `stall` gray fault
/// stops processing service messages but its network stack still answers
/// pings — the classic gray-failure signature that keeps naive detectors
/// green. `slow` stretches both classes (a saturated host is slow for
/// everyone).
enum class MessageClass { kService, kPing };

/// Simulated message transport between nodes placed at datacenter sites.
/// Delivery of a message runs a caller-provided closure at the destination's
/// delivery time; payloads are captured by the closure, so no serialization
/// is required, but callers pass the wire size in bytes so the capacity
/// model sees realistic load.
class Transport {
 public:
  Transport(sim::Simulator* simulator, const LatencyMatrix* matrix,
            std::unique_ptr<DelayModel> delay_model, TransportOptions options,
            uint64_t seed);

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Registers a node at datacenter `site`; returns its id.
  NodeId AddNode(int site);

  int node_site(NodeId node) const;
  int num_nodes() const { return static_cast<int>(node_sites_.size()); }

  /// Sends a message of `bytes` from `from` to `to`; `deliver` runs at the
  /// destination once link delay, loss retransmissions, link serialization
  /// and destination CPU queueing have elapsed. The in-flight message is a
  /// pooled envelope: steady-state sends allocate nothing beyond what the
  /// closure itself captures (and closures up to EventFn::kInlineCapacity
  /// are stored inline), batched or not.
  void Send(NodeId from, NodeId to, size_t bytes, sim::EventFn deliver,
            MessageClass cls = MessageClass::kService);

  /// True when link batching is configured (max_batch_bytes > 0).
  bool batching_enabled() const { return options_.max_batch_bytes > 0; }

  /// Flushes every open batch onto the wire immediately (deterministic
  /// row-major link order). No-op when batching is off or nothing is
  /// pending. Engines call this at decision points where added batching
  /// latency would be pure loss (e.g. after a commit decision fans out).
  void Flush();

  /// Marks a node as crashed: messages to it are dropped silently. Used by
  /// fault tests (e.g., Raft leader failure). Crashing a node flushes every
  /// open batch destined to its site, so queued messages meet the
  /// delivery-time crash check instead of lingering in the batcher.
  void SetNodeCrashed(NodeId node, bool crashed);
  bool IsNodeCrashed(NodeId node) const;

  /// Installs (or heals) a symmetric blackhole between two sites: every
  /// message whose endpoints straddle the pair is dropped, including
  /// messages already in flight at install time (a partition severs the
  /// path, not just future sends). Installing a partition flushes the open
  /// batches between the two sites (their messages then drop at the
  /// delivery-time partition re-check). The mask is allocated lazily so
  /// no-fault runs pay a single empty() test per send.
  void SetSitePartitioned(int site_a, int site_b, bool partitioned);
  bool IsSitePartitioned(int site_a, int site_b) const;

  /// Installs (or heals) an asymmetric blackhole on the directed path
  /// `from_site -> to_site` only; the reverse direction keeps flowing. The
  /// half-open link is the canonical gray network fault: A's requests reach
  /// B but B's replies vanish (or vice versa), so each end disagrees about
  /// who is down. Healing the pair with SetSitePartitioned(..., false)
  /// clears both directions.
  void SetSitePartitionedOneWay(int from_site, int to_site, bool partitioned);

  /// Fail-slow fault: until sim time `until`, every message serviced by
  /// `node` costs `factor` times its normal per-message CPU cost (or
  /// `factor` times options.slow_default_service_cost when the CPU model is
  /// off), queueing FIFO behind the node's backlog. Models a degraded host
  /// (thermal throttling, dying disk, noisy neighbor) that is up but
  /// drastically slower. Expires lazily; the backlog then drains in order.
  void SetNodeSlow(NodeId node, double factor, SimTime until);

  /// Gray stall: until sim time `until`, `node` neither processes inbound
  /// service messages nor emits its own sends — both are deferred (not
  /// dropped) to the stall's end, preserving FIFO order. kPing traffic
  /// passes through untouched: the stalled process's kernel still answers
  /// echo probes, so probe-based liveness stays green while the service is
  /// dead to the world.
  void SetNodeStalled(NodeId node, SimTime until);

  /// Current slow factor for `node` (1.0 when no slow fault is active).
  double NodeSlowFactor(NodeId node) const;
  /// End of `node`'s active stall window, or 0 when not stalled.
  SimTime NodeStallUntil(NodeId node) const;

  /// Overlays a transient degradation on the directed link `from -> to`
  /// until sim time `until`: `extra_loss` is an additional hard-drop
  /// probability (counted under the loss reason) and `extra_delay` is added
  /// to every surviving message's propagation delay. While active, the
  /// overlay's loss also degrades the link's effective Mathis capacity.
  /// Expired overlays are pruned lazily.
  void SetLinkOverlay(int from_site, int to_site, double extra_loss,
                      SimDuration extra_delay, SimTime until);

  /// Publishes the traffic counters through `registry` (`net.messages_sent`,
  /// `net.bytes_sent`, `net.messages_delivered`, `net.messages_dropped`,
  /// `net.messages_lost`, the per-reason split
  /// `net.dropped.{loss,crash,partition}`, the delivery-time subset
  /// `net.dropped.in_flight`, and the batching pair `net.batches_sent` /
  /// `net.msgs_per_batch`). The counters are a registry source: each
  /// Snapshot() pulls the lane shards' sums, so the transport must outlive
  /// the registry's last snapshot. Optional: transports built directly in
  /// tests skip this.
  void RegisterMetrics(obs::MetricsRegistry* registry);

  sim::Simulator* simulator() { return simulator_; }
  const LatencyMatrix& matrix() const { return *matrix_; }

  /// Traffic accounting contract. A message refused at send time (crashed
  /// endpoint, partitioned path, overlay loss) counts as a drop and never
  /// as sent traffic. A message that entered the network counts as sent
  /// exactly once and then resolves to exactly one of delivered, still in
  /// flight, or dropped at delivery time (receiver crashed / partition
  /// installed mid-flight); delivery-time drops count under both
  /// `messages_dropped` and `delivery_drops`. The invariant
  ///   messages_sent == messages_delivered + messages_in_flight
  ///                    + delivery_drops
  /// holds after every Send/Deliver (net_test and fault_test assert it,
  /// including under chaos schedules). Every accessor sums the per-lane
  /// shards, so call them from the main thread, outside parallel windows.
  uint64_t messages_sent() const { return Count(&Traffic::messages_sent); }
  uint64_t bytes_sent() const { return Count(&Traffic::bytes_sent); }
  uint64_t messages_delivered() const {
    return Count(&Traffic::messages_delivered);
  }
  /// Messages sent but not yet resolved: queued in an open batch, or
  /// scheduled on the wire.
  uint64_t messages_in_flight() const {
    return Count(&Traffic::messages_in_flight);
  }
  /// Delivery-time drops (a subset of messages_dropped).
  uint64_t delivery_drops() const { return Count(&Traffic::delivery_drops); }
  uint64_t messages_dropped() const {
    return Count(&Traffic::messages_dropped);
  }
  uint64_t messages_lost() const { return Count(&Traffic::messages_lost); }

  /// Wire frames actually emitted. With batching off this equals
  /// messages_sent (every message is its own frame); with batching on it
  /// counts flushed batches, so messages_sent / batches_sent is the
  /// amortization factor benches report as msgs-per-wire-frame.
  uint64_t batches_sent() const { return Count(&Traffic::batches_sent); }

  /// Service messages whose processing (or emission) was deferred by an
  /// active `stall` gray fault. Deferred messages stay in flight — the
  /// accounting invariant above is unchanged by stalls.
  uint64_t stall_deferrals() const {
    return Count(&Traffic::stall_deferrals);
  }

  /// Drop attribution: dropped == dropped_crash + dropped_partition +
  /// dropped_loss (overlay hard drops; baseline packet loss is modeled as
  /// retransmission delay and counted under messages_lost instead).
  uint64_t dropped_crash() const { return Count(&Traffic::dropped_crash); }
  uint64_t dropped_partition() const {
    return Count(&Traffic::dropped_partition);
  }
  uint64_t dropped_loss() const { return Count(&Traffic::dropped_loss); }

 private:
  enum class DropReason { kCrash, kPartition, kLoss };

  /// Traffic counters of one execution lane (see Lane). A message may be
  /// sent on one lane and delivered on another, so a shard's in-flight
  /// count can go negative; only sums across lanes are meaningful.
  struct Traffic {
    int64_t messages_sent = 0;
    int64_t bytes_sent = 0;
    int64_t messages_delivered = 0;
    int64_t messages_in_flight = 0;
    int64_t delivery_drops = 0;
    int64_t messages_dropped = 0;
    int64_t messages_lost = 0;
    int64_t dropped_crash = 0;
    int64_t dropped_partition = 0;
    int64_t dropped_loss = 0;
    int64_t batches_sent = 0;
    int64_t stall_deferrals = 0;
  };

  /// One in-flight message. Envelopes are pool-owned and recycled at
  /// delivery (or drop), so a ping-pong storm reuses the same few nodes;
  /// the scheduled kernel event captures only {Transport*, Envelope*}.
  /// `next` links the envelope into whichever intrusive list currently owns
  /// it: the free list when recycled, a batch FIFO while queued for a
  /// flush.
  struct Envelope {
    int from_site = 0;
    int to_site = 0;
    NodeId to = 0;
    size_t bytes = 0;
    bool ping = false;
    /// Deferred-service mode: destination CPU queueing already applied (the
    /// envelope is on its second, post-service delivery hop).
    bool serviced = false;
    sim::EventFn deliver;
    Envelope* next = nullptr;
  };

  /// One open batch per directed site pair (allocated only when batching is
  /// on). Messages chain FIFO through Envelope::next; the delay timer is
  /// armed when the first message opens the batch and cancelled when a
  /// byte-trigger or explicit flush empties it first.
  struct LinkBatch {
    Envelope* head = nullptr;
    Envelope* tail = nullptr;
    size_t framed_bytes = 0;
    uint64_t count = 0;
    bool timer_armed = false;
    sim::Simulator::EventId timer_id = 0;
  };

  /// Envelope pool: chunked storage plus an intrusive free list. An
  /// envelope may be allocated on one lane and recycled on another — the
  /// storage chunks outlive the transport either way.
  struct EnvelopePool {
    std::vector<std::unique_ptr<Envelope[]>> chunks;
    Envelope* free = nullptr;
  };

  /// Everything Send/Deliver write, one instance per execution lane (lane 0
  /// = main thread / serial kernel; 1 + site on the parallel kernel's
  /// worker lanes). Each lane writes only its own cache-line-aligned
  /// instance, so concurrent lanes neither race nor share a written line,
  /// and the counters are plain integers. Readers sum the shards from the
  /// main thread, after the kernel's window barrier has published them.
  struct alignas(64) Lane {
    EnvelopePool pool;
    Traffic traffic;
  };

  Envelope* AllocEnvelope(EnvelopePool& pool);
  /// Runs the delivery-time fault re-checks, recycles `env`, and invokes
  /// the closure (unless the message was eaten by a crash/partition).
  void Deliver(Envelope* env);

  /// Appends a sent message to the (sa, sb) batch, arming the delay timer
  /// for a fresh batch and flushing on the byte trigger.
  void EnqueueBatched(int sa, int sb, Envelope* env, size_t framed_bytes);
  /// Emits the (sa, sb) batch as one wire frame: one serialization slot,
  /// one propagation sample, one loss process; then schedules each member's
  /// delivery (destination CPU queueing stays per message).
  void FlushLink(int from_site, int to_site);
  /// Flushes every open batch whose destination is `site`.
  void FlushBatchesTo(int site);
  /// The single sanctioned kernel hand-off for wire deliveries; everything
  /// upstream must route through Send / the batcher so the flush queue sees
  /// it (enforced by the nattolint natto-batch-bypass rule).
  void ScheduleWireDelivery(SimTime at, Envelope* env);

  void CountDrop(Traffic& traffic, DropReason reason);
  /// State of the calling thread's execution lane.
  Lane& ThisLane();
  /// Traffic counters summed over all lanes.
  Traffic Totals() const;
  uint64_t Count(int64_t Traffic::*field) const {
    return static_cast<uint64_t>(Totals().*field);
  }
  /// Serialization start bookkeeping per directed site pair.
  SimTime& LinkFreeAt(int from_site, int to_site);

  /// Destination CPU service completion for a message arriving at `arrival`:
  /// applies the configured cost model, the fail-slow stretch while one is
  /// active, and residual-backlog FIFO draining after a slow window ends.
  /// Byte-identical to the legacy inline cost block when no node is
  /// degraded.
  SimTime ServiceDone(NodeId to, size_t bytes, SimTime arrival, SimTime now);

  double EffectiveLinkRate(int from_site, int to_site) const;

  sim::Simulator* simulator_;
  const LatencyMatrix* matrix_;
  std::unique_ptr<DelayModel> delay_model_;
  TransportOptions options_;
  Rng rng_;

  std::vector<int> node_sites_;
  std::vector<bool> node_crashed_;
  std::vector<SimTime> node_free_at_;
  std::vector<SimTime> link_free_at_;  // num_sites^2, row-major

  /// Open batches, num_sites^2 row-major; empty when batching is off.
  std::vector<LinkBatch> link_batches_;

  /// Site-pair blackhole mask, num_sites^2 row-major; empty until the first
  /// SetSitePartitioned call (null-injector fast path). Directed: a one-way
  /// partition sets only the [from][to] entry.
  std::vector<uint8_t> partition_mask_;

  /// Per-node gray-failure state (fail-slow stretch + stall window), indexed
  /// by NodeId; empty until the first SetNodeSlow/SetNodeStalled call so
  /// no-fault runs pay one empty() test per send/deliver.
  struct NodeDegrade {
    double slow_factor = 1.0;
    SimTime slow_until = 0;
    SimTime stall_until = 0;
  };
  std::vector<NodeDegrade> node_degrade_;

  struct LinkOverlay {
    double extra_loss = 0.0;
    SimDuration extra_delay = 0;
    SimTime until = 0;
  };
  /// Directed (from_site, to_site) -> transient overlay; empty in no-fault
  /// runs. Ordered map: iteration order must not depend on hash layout.
  std::map<std::pair<int, int>, LinkOverlay> link_overlays_;

  /// Indexed by Simulator::CurrentLane().
  std::vector<Lane> lanes_;

  /// Registry histogram; null until RegisterMetrics. Recorded only by the
  /// batcher, which never runs site-parallel.
  obs::Histogram* msgs_per_batch_metric_ = nullptr;
};

}  // namespace natto::net

#endif  // NATTO_NET_TRANSPORT_H_
