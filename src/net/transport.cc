#include "net/transport.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"

namespace natto::net {

Transport::Transport(sim::Simulator* simulator, const LatencyMatrix* matrix,
                     std::unique_ptr<DelayModel> delay_model,
                     TransportOptions options, uint64_t seed)
    : simulator_(simulator),
      matrix_(matrix),
      delay_model_(std::move(delay_model)),
      options_(options),
      rng_(seed) {
  NATTO_CHECK(simulator_ != nullptr);
  NATTO_CHECK(matrix_ != nullptr);
  if (delay_model_ == nullptr) delay_model_ = MakeConstantDelay();
  int n = matrix_->num_sites();
  link_free_at_.assign(static_cast<size_t>(n) * n, 0);
  // Lane 0 serves the serial kernel and the main thread; lanes 1..n serve
  // the parallel kernel's per-site workers. Pools are lazily chunked, so
  // unused lanes cost one empty vector and a zeroed counter shard each.
  lanes_.resize(static_cast<size_t>(n) + 1);
  if (batching_enabled()) {
    NATTO_CHECK(options_.max_batch_delay >= 0);
    link_batches_.assign(static_cast<size_t>(n) * n, LinkBatch{});
  }
  if (simulator_->site_parallel()) {
    // Under the site-parallel kernel Send/Deliver run concurrently on
    // worker lanes; every stateful wire model touched at send time (batch
    // FIFOs, link serialization clocks, the loss/jitter RNG —
    // min_scale_factor() == 1 iff the model never draws) would race or
    // diverge from serial order. The node CPU-cost model is the exception:
    // in deferred mode its state is per receiver and touched only at
    // delivery on the receiver's own lane, so it is site-confined.
    bool node_cpu_ok = options_.deferred_node_service ||
                       (options_.node_cost_per_message == 0 &&
                        options_.node_cost_per_kib == 0);
    NATTO_CHECK(!batching_enabled() && options_.packet_loss == 0.0 &&
                options_.link_bandwidth_bytes_per_sec == 0.0 && node_cpu_ok &&
                delay_model_->min_scale_factor() == 1.0)
        << "site-parallel simulation requires the stateless transport fast "
           "path (no batching, loss, capacity, or random delays; CPU cost "
           "only with deferred_node_service)";
  }
}

NodeId Transport::AddNode(int site) {
  NATTO_CHECK(site >= 0 && site < matrix_->num_sites());
  node_sites_.push_back(site);
  node_crashed_.push_back(false);
  node_free_at_.push_back(0);
  return static_cast<NodeId>(node_sites_.size()) - 1;
}

int Transport::node_site(NodeId node) const {
  NATTO_DCHECK(node >= 0 && node < num_nodes());
  return node_sites_[node];
}

void Transport::SetNodeCrashed(NodeId node, bool crashed) {
  NATTO_CHECK(node >= 0 && node < num_nodes());
  node_crashed_[node] = crashed;
  // Queued batches destined to the crashed node's site flush now, so their
  // messages meet the delivery-time crash check instead of outliving the
  // fault inside the batcher.
  if (crashed && !link_batches_.empty()) FlushBatchesTo(node_sites_[node]);
}

bool Transport::IsNodeCrashed(NodeId node) const {
  NATTO_DCHECK(node >= 0 && node < num_nodes());
  return node_crashed_[node];
}

void Transport::SetSitePartitioned(int site_a, int site_b, bool partitioned) {
  int n = matrix_->num_sites();
  NATTO_CHECK(site_a >= 0 && site_a < n);
  NATTO_CHECK(site_b >= 0 && site_b < n);
  if (site_a == site_b) return;  // a site is never partitioned from itself
  if (partition_mask_.empty()) {
    if (!partitioned) return;
    partition_mask_.assign(static_cast<size_t>(n) * n, 0);
  }
  uint8_t v = partitioned ? 1 : 0;
  partition_mask_[static_cast<size_t>(site_a) * n + site_b] = v;
  partition_mask_[static_cast<size_t>(site_b) * n + site_a] = v;
  // A partition severs the path for everything already accepted onto it:
  // flush the straddling batches so their messages hit the delivery-time
  // partition re-check (and drop there) rather than waiting out the fault.
  if (partitioned && !link_batches_.empty()) {
    FlushLink(site_a, site_b);
    FlushLink(site_b, site_a);
  }
}

bool Transport::IsSitePartitioned(int site_a, int site_b) const {
  if (partition_mask_.empty()) return false;
  return partition_mask_[static_cast<size_t>(site_a) * matrix_->num_sites() +
                         site_b] != 0;
}

void Transport::SetSitePartitionedOneWay(int from_site, int to_site,
                                         bool partitioned) {
  int n = matrix_->num_sites();
  NATTO_CHECK(from_site >= 0 && from_site < n);
  NATTO_CHECK(to_site >= 0 && to_site < n);
  if (from_site == to_site) return;
  if (partition_mask_.empty()) {
    if (!partitioned) return;
    partition_mask_.assign(static_cast<size_t>(n) * n, 0);
  }
  partition_mask_[static_cast<size_t>(from_site) * n + to_site] =
      partitioned ? 1 : 0;
  // Only the severed direction's open batch is flushed into the
  // delivery-time drop check; the healthy reverse direction is untouched.
  if (partitioned && !link_batches_.empty()) FlushLink(from_site, to_site);
}

void Transport::SetNodeSlow(NodeId node, double factor, SimTime until) {
  NATTO_CHECK(node >= 0 && node < num_nodes());
  NATTO_CHECK(factor >= 1.0);
  if (node_degrade_.size() < node_sites_.size()) {
    node_degrade_.resize(node_sites_.size());
  }
  node_degrade_[node].slow_factor = factor;
  node_degrade_[node].slow_until = until;
}

void Transport::SetNodeStalled(NodeId node, SimTime until) {
  NATTO_CHECK(node >= 0 && node < num_nodes());
  if (node_degrade_.size() < node_sites_.size()) {
    node_degrade_.resize(node_sites_.size());
  }
  node_degrade_[node].stall_until = until;
}

double Transport::NodeSlowFactor(NodeId node) const {
  NATTO_DCHECK(node >= 0 && node < num_nodes());
  if (static_cast<size_t>(node) >= node_degrade_.size()) return 1.0;
  const NodeDegrade& d = node_degrade_[node];
  return d.slow_until > simulator_->Now() ? d.slow_factor : 1.0;
}

SimTime Transport::NodeStallUntil(NodeId node) const {
  NATTO_DCHECK(node >= 0 && node < num_nodes());
  if (static_cast<size_t>(node) >= node_degrade_.size()) return 0;
  SimTime until = node_degrade_[node].stall_until;
  return until > simulator_->Now() ? until : 0;
}

SimTime Transport::ServiceDone(NodeId to, size_t bytes, SimTime arrival,
                               SimTime now) {
  bool queue = options_.node_cost_per_message > 0 ||
               options_.node_cost_per_kib > 0;
  SimDuration cost =
      queue ? options_.node_cost_per_message +
                  options_.node_cost_per_kib *
                      static_cast<SimDuration>(bytes) / 1024
            : 0;
  if (!node_degrade_.empty() &&
      static_cast<size_t>(to) < node_degrade_.size()) {
    const NodeDegrade& d = node_degrade_[to];
    if (d.slow_until > now) {
      SimDuration base =
          cost > 0 ? cost : options_.slow_default_service_cost;
      cost = static_cast<SimDuration>(static_cast<double>(base) *
                                      d.slow_factor);
      queue = true;
    } else if (!queue && node_free_at_[to] > arrival) {
      // The slow window has expired but its backlog hasn't drained: keep
      // new arrivals FIFO behind it instead of letting them overtake
      // messages queued during the fault.
      queue = true;
    }
  }
  if (!queue) return arrival;
  SimTime start = std::max(arrival, node_free_at_[to]);
  node_free_at_[to] = start + cost;
  return start + cost;
}

void Transport::SetLinkOverlay(int from_site, int to_site, double extra_loss,
                               SimDuration extra_delay, SimTime until) {
  int n = matrix_->num_sites();
  NATTO_CHECK(from_site >= 0 && from_site < n);
  NATTO_CHECK(to_site >= 0 && to_site < n);
  // loss == 1.0 is a deterministic blackhole (Bernoulli(1) draws nothing).
  NATTO_CHECK(extra_loss >= 0.0 && extra_loss <= 1.0);
  if (until <= simulator_->Now()) {
    link_overlays_.erase({from_site, to_site});
    return;
  }
  link_overlays_[{from_site, to_site}] =
      LinkOverlay{extra_loss, extra_delay, until};
}

void Transport::CountDrop(Traffic& traffic, DropReason reason) {
  ++traffic.messages_dropped;
  switch (reason) {
    case DropReason::kCrash:
      ++traffic.dropped_crash;
      break;
    case DropReason::kPartition:
      ++traffic.dropped_partition;
      break;
    case DropReason::kLoss:
      ++traffic.dropped_loss;
      break;
  }
}

Transport::Lane& Transport::ThisLane() {
  auto lane = static_cast<size_t>(simulator_->CurrentLane());
  NATTO_DCHECK(lane < lanes_.size());
  return lanes_[lane];
}

Transport::Traffic Transport::Totals() const {
  Traffic sum;
  for (const Lane& lane : lanes_) {
    const Traffic& t = lane.traffic;
    sum.messages_sent += t.messages_sent;
    sum.bytes_sent += t.bytes_sent;
    sum.messages_delivered += t.messages_delivered;
    sum.messages_in_flight += t.messages_in_flight;
    sum.delivery_drops += t.delivery_drops;
    sum.messages_dropped += t.messages_dropped;
    sum.messages_lost += t.messages_lost;
    sum.dropped_crash += t.dropped_crash;
    sum.dropped_partition += t.dropped_partition;
    sum.dropped_loss += t.dropped_loss;
    sum.batches_sent += t.batches_sent;
    sum.stall_deferrals += t.stall_deferrals;
  }
  return sum;
}

SimTime& Transport::LinkFreeAt(int from_site, int to_site) {
  return link_free_at_[static_cast<size_t>(from_site) * matrix_->num_sites() +
                       to_site];
}

double Transport::EffectiveLinkRate(int from_site, int to_site) const {
  double rate = options_.link_bandwidth_bytes_per_sec;
  if (rate <= 0.0) return 0.0;  // capacity model disabled
  double loss = options_.packet_loss;
  if (!link_overlays_.empty()) {
    // An active degradation overlay's extra loss compounds with the
    // baseline loss probability and collapses this link's Mathis capacity
    // for the overlay's duration (expired overlays are ignored here and
    // pruned by the next Send).
    auto it = link_overlays_.find({from_site, to_site});
    if (it != link_overlays_.end() && it->second.until > simulator_->Now()) {
      loss = 1.0 - (1.0 - loss) * (1.0 - it->second.extra_loss);
    }
  }
  if (loss > 0.0) {
    // Mathis et al.: per-flow TCP throughput ~= MSS / (RTT * sqrt(p)).
    double rtt_sec = ToSeconds(matrix_->Rtt(from_site, to_site));
    rtt_sec = std::max(rtt_sec, 1e-4);
    double per_flow = options_.tcp_mss_bytes / (rtt_sec * std::sqrt(loss));
    double aggregate = per_flow * options_.tcp_flows_per_link;
    rate = std::min(rate, aggregate);
  }
  return rate;
}

Transport::Envelope* Transport::AllocEnvelope(EnvelopePool& pool) {
  if (pool.free == nullptr) {
    constexpr int kChunk = 64;
    pool.chunks.push_back(std::make_unique<Envelope[]>(kChunk));
    Envelope* chunk = pool.chunks.back().get();
    for (int i = kChunk - 1; i >= 0; --i) {
      chunk[i].next = pool.free;
      pool.free = &chunk[i];
    }
  }
  Envelope* env = pool.free;
  pool.free = env->next;
  return env;
}

void Transport::Deliver(Envelope* env) {
  Lane& lane = ThisLane();
  // Stall re-check before anything touches the envelope: a service message
  // arriving at a stalled node sits in its receive queue until the stall
  // ends (deferred, not dropped — it stays in flight and keeps its FIFO
  // position via the kernel's equal-time tie break). Pings bypass the
  // stall: the frozen process's kernel still answers them.
  if (!node_degrade_.empty() && !env->ping &&
      static_cast<size_t>(env->to) < node_degrade_.size()) {
    SimTime stall_until = node_degrade_[env->to].stall_until;
    if (stall_until > simulator_->Now()) {
      ++lane.traffic.stall_deferrals;
      ScheduleWireDelivery(stall_until, env);
      return;
    }
  }
  // Deferred service: destination CPU queueing applies here, at wire
  // arrival on the receiver's lane, instead of at send time. node_free_at_
  // is then only ever touched by the owning site's lane (site-parallel
  // safe), with arrival order as the FIFO discipline.
  if (options_.deferred_node_service && !env->serviced) {
    env->serviced = true;
    SimTime now = simulator_->Now();
    SimTime done = ServiceDone(env->to, env->bytes, now, now);
    if (done > now) {
      ScheduleWireDelivery(done, env);
      return;
    }
  }
  // Move the closure out and recycle first: a re-entrant Send from inside
  // `deliver` can then reuse this very envelope.
  sim::EventFn deliver = std::move(env->deliver);
  const int sa = env->from_site;
  const int sb = env->to_site;
  const NodeId to = env->to;
  env->next = lane.pool.free;
  lane.pool.free = env;

  Traffic& traffic = lane.traffic;
  --traffic.messages_in_flight;

  // The delivery-time checks re-validate against faults injected while the
  // message was in flight: a receiver that crashed before delivery eats the
  // message (crash reason), and a partition installed mid-flight severs the
  // path for packets already on it. Such drops stay counted as sent traffic
  // (they did enter the network) and additionally count under
  // delivery_drops, keeping sent == delivered + in_flight + delivery_drops.
  if (node_crashed_[to]) {
    ++traffic.delivery_drops;
    CountDrop(traffic, DropReason::kCrash);
    return;
  }
  if (!partition_mask_.empty() && IsSitePartitioned(sa, sb)) {
    ++traffic.delivery_drops;
    CountDrop(traffic, DropReason::kPartition);
    return;
  }
  ++traffic.messages_delivered;
  deliver();
}

void Transport::ScheduleWireDelivery(SimTime at, Envelope* env) {
  // Routed to the destination's site so the parallel kernel delivers on the
  // receiver's lane; the serial kernel treats the site as a no-op.
  simulator_->ScheduleAtSite(  // NOLINT(natto-batch-bypass)
      env->to_site, at, [this, env]() { Deliver(env); });
}

void Transport::EnqueueBatched(int sa, int sb, Envelope* env,
                               size_t framed_bytes) {
  LinkBatch& batch =
      link_batches_[static_cast<size_t>(sa) * matrix_->num_sites() + sb];
  env->next = nullptr;
  if (batch.tail == nullptr) {
    batch.head = env;
  } else {
    batch.tail->next = env;
  }
  batch.tail = env;
  batch.framed_bytes += framed_bytes;
  ++batch.count;

  if (batch.framed_bytes >= options_.max_batch_bytes) {
    // Byte trigger: emit immediately (FlushLink cancels the delay timer).
    FlushLink(sa, sb);
    return;
  }
  if (!batch.timer_armed) {
    batch.timer_armed = true;
    // The timer clears its own armed flag before flushing so FlushLink only
    // ever cancels genuinely pending timers (cancelling an already-executed
    // event would leave a permanent tombstone in the kernel).
    batch.timer_id = simulator_->ScheduleAfter(
        options_.max_batch_delay, [this, sa, sb]() {
          LinkBatch& b = link_batches_[static_cast<size_t>(sa) *
                                           matrix_->num_sites() +
                                       sb];
          b.timer_armed = false;
          FlushLink(sa, sb);
        });
  }
}

void Transport::FlushLink(int from_site, int to_site) {
  LinkBatch& batch = link_batches_[static_cast<size_t>(from_site) *
                                       matrix_->num_sites() +
                                   to_site];
  if (batch.timer_armed) {
    // A byte-trigger, explicit, or fault-driven flush beat the max-delay
    // timer: cancel it so it never fires for this emptied batch (the timer
    // path clears timer_armed before calling in, so the id here is always
    // still pending and its tombstone is reclaimed by the kernel).
    simulator_->Cancel(batch.timer_id);
    batch.timer_armed = false;
  }
  Envelope* head = batch.head;
  if (head == nullptr) return;
  const size_t total_bytes = batch.framed_bytes;
  const uint64_t count = batch.count;
  batch.head = nullptr;
  batch.tail = nullptr;
  batch.framed_bytes = 0;
  batch.count = 0;

  Traffic& traffic = ThisLane().traffic;
  ++traffic.batches_sent;
  if (msgs_per_batch_metric_) {
    msgs_per_batch_metric_->Record(static_cast<double>(count));
  }

  SimTime now = simulator_->Now();

  // The batch is one wire frame: one serialization slot for the summed
  // framed bytes, one propagation sample, one loss/retransmission process.
  SimTime depart = now;
  double rate = EffectiveLinkRate(from_site, to_site);
  if (rate > 0.0) {
    SimTime& free_at = LinkFreeAt(from_site, to_site);
    SimTime start = std::max(now, free_at);
    auto tx = static_cast<SimDuration>(static_cast<double>(total_bytes) /
                                       rate * 1e6);  // seconds -> micros
    free_at = start + tx;
    depart = free_at;
  }

  SimDuration overlay_delay = 0;
  if (!link_overlays_.empty()) {
    auto it = link_overlays_.find({from_site, to_site});
    if (it != link_overlays_.end()) {
      if (it->second.until <= now) {
        link_overlays_.erase(it);
      } else {
        overlay_delay = it->second.extra_delay;
      }
    }
  }

  SimDuration delay =
      delay_model_->Sample(matrix_->OneWay(from_site, to_site), rng_) +
      overlay_delay;

  if (options_.packet_loss > 0.0) {
    SimDuration rtt = matrix_->Rtt(from_site, to_site);
    bool first = true;
    SimDuration rto = options_.retransmit_timeout;
    while (rng_.Bernoulli(options_.packet_loss)) {
      ++traffic.messages_lost;
      if (first) {
        delay += std::max<SimDuration>(rtt, Millis(1));
        first = false;
      } else {
        delay += rto;
        rto = std::min<SimDuration>(rto * 2, Seconds(8));
      }
    }
  }

  SimTime arrival = depart + delay;

  // Unpack in FIFO order: destination CPU queueing stays per message (the
  // receiver still parses every message in the frame), and equal-time
  // deliveries keep their enqueue order through the kernel's FIFO tie
  // break.
  Envelope* env = head;
  while (env != nullptr) {
    Envelope* next = env->next;
    env->next = nullptr;
    SimTime done = options_.deferred_node_service
                       ? arrival
                       : ServiceDone(env->to, env->bytes, arrival, now);
    ScheduleWireDelivery(done, env);
    env = next;
  }
}

void Transport::Flush() {
  if (link_batches_.empty()) return;
  int n = matrix_->num_sites();
  for (int sa = 0; sa < n; ++sa) {
    for (int sb = 0; sb < n; ++sb) {
      FlushLink(sa, sb);
    }
  }
}

void Transport::FlushBatchesTo(int site) {
  int n = matrix_->num_sites();
  for (int sa = 0; sa < n; ++sa) {
    FlushLink(sa, site);
  }
}

void Transport::Send(NodeId from, NodeId to, size_t bytes,
                     sim::EventFn deliver, MessageClass cls) {
  NATTO_DCHECK(from >= 0 && from < num_nodes());
  NATTO_DCHECK(to >= 0 && to < num_nodes());
  Lane& lane = ThisLane();
  Traffic& traffic = lane.traffic;
  // A crashed endpoint means nothing enters the network: count the message
  // as a drop, not as sent traffic (a crashed sender must not inflate the
  // traffic stats).
  if (node_crashed_[from] || node_crashed_[to]) {
    CountDrop(traffic, DropReason::kCrash);
    return;
  }

  int sa = node_sites_[from];
  int sb = node_sites_[to];
  SimTime now = simulator_->Now();

  // A stalled sender emits nothing until its stall window ends: the whole
  // send (fault checks, counters, wire model) replays at that instant, so a
  // partition installed mid-stall still eats the message. Ping replies are
  // exempt — the kernel answers even when the process is frozen. This is a
  // sender-side process stall, not a wire hand-off, hence the direct
  // re-entry instead of the batcher.
  if (!node_degrade_.empty() && cls == MessageClass::kService &&
      static_cast<size_t>(from) < node_degrade_.size()) {
    SimTime stall_until = node_degrade_[from].stall_until;
    if (stall_until > now) {
      ++traffic.stall_deferrals;
      simulator_->ScheduleAt(  // NOLINT(natto-batch-bypass)
          stall_until,
          [this, from, to, bytes, d = std::move(deliver), cls]() mutable {
            Send(from, to, bytes, std::move(d), cls);
          });
      return;
    }
  }

  // Site-pair blackhole: nothing crosses a partitioned path.
  if (!partition_mask_.empty() && IsSitePartitioned(sa, sb)) {
    CountDrop(traffic, DropReason::kPartition);
    return;
  }

  // Transient degradation overlay on this directed link. The loss draw is
  // per message at send time (batched or not, so drop attribution and the
  // RNG stream stay per-message); the extra delay applies here on the
  // unbatched path and at flush time for a batch.
  SimDuration overlay_delay = 0;
  if (!link_overlays_.empty()) {
    auto it = link_overlays_.find({sa, sb});
    if (it != link_overlays_.end()) {
      if (it->second.until <= now) {
        link_overlays_.erase(it);
      } else {
        if (it->second.extra_loss > 0.0 &&
            rng_.Bernoulli(it->second.extra_loss)) {
          CountDrop(traffic, DropReason::kLoss);
          return;
        }
        overlay_delay = it->second.extra_delay;
      }
    }
  }

  ++traffic.messages_sent;
  ++traffic.messages_in_flight;
  if (batching_enabled()) {
    // Batching stage: the message joins the open batch for its directed
    // site pair and is charged framed wire bytes; the wire-cost model runs
    // once per batch at flush time.
    size_t framed = bytes + options_.framing_bytes_per_message;
    traffic.bytes_sent += static_cast<int64_t>(framed);
    Envelope* env = AllocEnvelope(lane.pool);
    env->from_site = sa;
    env->to_site = sb;
    env->to = to;
    env->bytes = bytes;
    env->ping = cls == MessageClass::kPing;
    env->serviced = false;
    env->deliver = std::move(deliver);
    EnqueueBatched(sa, sb, env, framed);
    return;
  }
  traffic.bytes_sent += static_cast<int64_t>(bytes);
  // Unbatched: every message is its own wire frame (the msgs_per_batch
  // histogram stays empty — it only describes real coalescing).
  ++traffic.batches_sent;

  // Link serialization under the capacity model.
  SimTime depart = now;
  double rate = EffectiveLinkRate(sa, sb);
  if (rate > 0.0) {
    SimTime& free_at = LinkFreeAt(sa, sb);
    SimTime start = std::max(now, free_at);
    auto tx = static_cast<SimDuration>(static_cast<double>(bytes) / rate *
                                       1e6);  // seconds -> micros
    free_at = start + tx;
    depart = free_at;
  }

  // Propagation delay with the configured distribution.
  SimDuration delay =
      delay_model_->Sample(matrix_->OneWay(sa, sb), rng_) + overlay_delay;

  // Loss: the first lost transmission is usually recovered by TCP fast
  // retransmit on the busy persistent connection (~1 RTT); repeated losses
  // of the same segment fall back to the retransmission timeout with
  // exponential backoff.
  if (options_.packet_loss > 0.0) {
    SimDuration rtt = matrix_->Rtt(sa, sb);
    bool first = true;
    SimDuration rto = options_.retransmit_timeout;
    while (rng_.Bernoulli(options_.packet_loss)) {
      ++traffic.messages_lost;
      if (first) {
        delay += std::max<SimDuration>(rtt, Millis(1));
        first = false;
      } else {
        delay += rto;
        rto = std::min<SimDuration>(rto * 2, Seconds(8));
      }
    }
  }

  SimTime arrival = depart + delay;

  // Destination CPU queueing (plus fail-slow stretch when active); in
  // deferred mode it is applied by Deliver() on the receiver's lane.
  SimTime done = options_.deferred_node_service
                     ? arrival
                     : ServiceDone(to, bytes, arrival, now);

  Envelope* env = AllocEnvelope(lane.pool);
  env->from_site = sa;
  env->to_site = sb;
  env->to = to;
  env->bytes = bytes;
  env->ping = cls == MessageClass::kPing;
  env->serviced = false;
  env->deliver = std::move(deliver);
  ScheduleWireDelivery(done, env);
}

void Transport::RegisterMetrics(obs::MetricsRegistry* registry) {
  NATTO_CHECK(registry != nullptr);
  msgs_per_batch_metric_ = registry->GetHistogram("net.msgs_per_batch");
  registry->AddSource([this](obs::MetricsSnapshot* snap) {
    const Traffic t = Totals();
    snap->counters["net.messages_sent"] += t.messages_sent;
    snap->counters["net.bytes_sent"] += t.bytes_sent;
    snap->counters["net.messages_delivered"] += t.messages_delivered;
    snap->counters["net.messages_dropped"] += t.messages_dropped;
    snap->counters["net.messages_lost"] += t.messages_lost;
    snap->counters["net.dropped.crash"] += t.dropped_crash;
    snap->counters["net.dropped.partition"] += t.dropped_partition;
    snap->counters["net.dropped.loss"] += t.dropped_loss;
    snap->counters["net.dropped.in_flight"] += t.delivery_drops;
    snap->counters["net.batches_sent"] += t.batches_sent;
    snap->counters["net.stall_deferrals"] += t.stall_deferrals;
  });
}

}  // namespace natto::net
