#include "natto/natto.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace natto::core {

namespace {

bool Overlaps(const std::vector<Key>& a, const std::vector<Key>& b) {
  for (Key x : a) {
    for (Key y : b) {
      if (x == y) return true;
    }
  }
  return false;
}

}  // namespace

// ---------------------------------------------------------------------------
// NattoOptions presets
// ---------------------------------------------------------------------------

NattoOptions NattoOptions::TsOnly() {
  NattoOptions o;
  o.lecsf = o.priority_abort = o.conditional_prepare = o.recsf = false;
  return o;
}

NattoOptions NattoOptions::Lecsf() {
  NattoOptions o = TsOnly();
  o.lecsf = true;
  return o;
}

NattoOptions NattoOptions::Pa() {
  NattoOptions o = Lecsf();
  o.priority_abort = true;
  return o;
}

NattoOptions NattoOptions::Cp() {
  NattoOptions o = Pa();
  o.conditional_prepare = true;
  return o;
}

NattoOptions NattoOptions::Recsf() {
  NattoOptions o = Cp();
  o.recsf = true;
  return o;
}

// ---------------------------------------------------------------------------
// NattoServer
// ---------------------------------------------------------------------------

NattoServer::NattoServer(NattoEngine* engine, int partition, int site,
                         sim::NodeClock clock)
    : net::Node(engine->cluster()->transport(), site, clock),
      engine_(engine),
      partition_(partition),
      kv_(engine->cluster()->options().default_value) {
  obs::MetricsRegistry* reg = engine->cluster()->metrics();
  const std::string prefix =
      "natto.server.p" + std::to_string(partition) + ".";
  stats_.priority_aborts = reg->GetCounter(prefix + "priority_aborts");
  stats_.pa_suppressed = reg->GetCounter(prefix + "pa_suppressed");
  stats_.conditional_prepares =
      reg->GetCounter(prefix + "conditional_prepares");
  stats_.cp_satisfied = reg->GetCounter(prefix + "cp_satisfied");
  stats_.cp_failed = reg->GetCounter(prefix + "cp_failed");
  stats_.order_violation_aborts =
      reg->GetCounter(prefix + "order_violation_aborts");
  stats_.occ_aborts = reg->GetCounter(prefix + "occ_aborts");
  stats_.recsf_forwards = reg->GetCounter(prefix + "recsf_forwards");
  stats_.stale_retries = reg->GetCounter(prefix + "stale_retries");
}

NattoServer::Stats NattoServer::stats() const {
  Stats s;
  s.priority_aborts = static_cast<uint64_t>(stats_.priority_aborts->value());
  s.pa_suppressed = static_cast<uint64_t>(stats_.pa_suppressed->value());
  s.conditional_prepares =
      static_cast<uint64_t>(stats_.conditional_prepares->value());
  s.cp_satisfied = static_cast<uint64_t>(stats_.cp_satisfied->value());
  s.cp_failed = static_cast<uint64_t>(stats_.cp_failed->value());
  s.order_violation_aborts =
      static_cast<uint64_t>(stats_.order_violation_aborts->value());
  s.occ_aborts = static_cast<uint64_t>(stats_.occ_aborts->value());
  s.recsf_forwards = static_cast<uint64_t>(stats_.recsf_forwards->value());
  s.stale_retries = static_cast<uint64_t>(stats_.stale_retries->value());
  return s;
}

bool NattoServer::ConflictsLocal(const TxnState& a, const TxnState& b) const {
  return Overlaps(a.local_writes, b.local_writes) ||
         Overlaps(a.local_writes, b.local_reads) ||
         Overlaps(a.local_reads, b.local_writes);
}

void NattoServer::HandleReadPrepare(NattoWireTxn txn) {
  const txn::Topology& topo = engine_->cluster()->topology();
  TxnState st;
  st.local_reads = topo.LocalKeys(txn.read_set, partition_);
  st.local_writes = topo.LocalKeys(txn.write_set, partition_);
  st.txn = std::move(txn);

  if (finished_.contains(st.txn.id)) {
    const NattoWireTxn& w = st.txn;
    stats_.stale_retries->Inc();
    if (obs::Tracer* tr = engine_->cluster()->tracer()) {
      tr->Instant(w.id, "stale_retry_refused", partition_, TrueNow());
      tr->AttributeAbort(w.id, obs::AbortCause::kStaleRetry);
    }
    NattoVote v;
    v.id = w.id;
    v.partition = partition_;
    v.ok = false;
    v.reason = "transaction already finished here";
    v.cause = obs::AbortCause::kStaleRetry;
    auto* co = engine_->coordinator_at(w.origin_site);
    SendTo(co->id(), kMessageHeaderBytes,
           [co, v = std::move(v)]() { co->HandleVote(v); });
    return;
  }
  Enqueue(std::move(st));
}

void NattoServer::Enqueue(TxnState&& st) {
  SimTime now = LocalNow();
  const NattoWireTxn& w = st.txn;

  // Late arrival: abort only if it violates timestamp order with an already
  // prepared conflicting transaction that has a LARGER timestamp (Sec 2.2 /
  // Sec 3.2).
  if (now > w.ts) {
    bool violated = false;
    for (Key k : st.local_reads) {
      const SimTime* t = key_order_ts_.find(k);
      if (t != nullptr && *t > w.ts) violated = true;
    }
    for (Key k : st.local_writes) {
      const SimTime* t = key_order_ts_.find(k);
      if (t != nullptr && *t > w.ts) violated = true;
    }
    if (violated) {
      stats_.order_violation_aborts->Inc();
      if (obs::Tracer* tr = engine_->cluster()->tracer()) {
        tr->Instant(w.id, "order_violation", partition_, TrueNow());
        tr->AttributeAbort(w.id, obs::AbortCause::kOrderViolation);
      }
      finished_.insert(w.id);
      NattoVote v;
      v.id = w.id;
      v.partition = partition_;
      v.ok = false;
      v.reason = "timestamp order violation (late arrival)";
      v.cause = obs::AbortCause::kOrderViolation;
      auto* co = engine_->coordinator_at(w.origin_site);
      SendTo(co->id(), kMessageHeaderBytes,
             [co, v = std::move(v)]() { co->HandleVote(v); });
      return;
    }
  }

  // Priority-abort pass (Sec 3.3.1), generalized to multiple levels: a
  // strictly higher level preempts lower ones in both directions.
  if (engine_->options().priority_abort) {
    OrderKey my_key{w.ts, w.id};
    int my_level = txn::PriorityLevel(w.priority);
    if (my_level > 0) {
      // Abort conflicting queued lower-level transactions ordered before us.
      std::vector<OrderKey> victims;
      for (const auto& [key, other] : queue_) {
        if (key >= my_key) break;
        if (txn::PriorityLevel(other.txn.priority) >= my_level) continue;
        if (!ConflictsLocal(st, other)) continue;
        if (engine_->options().pa_completion_estimate &&
            LowWillFinishInTime(other, st)) {
          stats_.pa_suppressed->Inc();
          continue;
        }
        victims.push_back(key);
      }
      for (const OrderKey& key : victims) {
        auto it = queue_.find(key);
        if (it == queue_.end()) continue;
        TxnState victim = std::move(it->second);
        queue_.erase(it);
        PriorityAbort(victim, "higher-priority arrival");
      }
    }
    {
      // A transaction ordered before a conflicting queued or waiting
      // higher-level transaction is aborted on arrival.
      auto blocked_by_higher = [&](const std::map<OrderKey, TxnState>& m) {
        for (const auto& [key, other] : m) {
          if (key <= my_key) continue;
          if (txn::PriorityLevel(other.txn.priority) <= my_level) continue;
          if (!ConflictsLocal(st, other)) continue;
          if (engine_->options().pa_completion_estimate &&
              LowWillFinishInTime(st, other)) {
            stats_.pa_suppressed->Inc();
            continue;
          }
          return true;
        }
        return false;
      };
      if (blocked_by_higher(queue_) || blocked_by_higher(waiting_)) {
        PriorityAbort(st, "conflicting higher-priority pending");
        return;
      }
    }
  }

  OrderKey key{w.ts, w.id};
  if (obs::Tracer* tr = engine_->cluster()->tracer()) {
    tr->SpanBegin(w.id, "queue", partition_, TrueNow());
  }
  queue_.emplace(key, std::move(st));  // `w` is moved-from below
  if (now >= key.first) {
    DrainReady();
  } else {
    AtLocalTime(key.first, [this]() { DrainReady(); });
  }
}

void NattoServer::DrainReady() {
  while (!queue_.empty() && queue_.begin()->first.first <= LocalNow()) {
    auto node = queue_.extract(queue_.begin());
    if (obs::Tracer* tr = engine_->cluster()->tracer()) {
      tr->SpanEnd(node.mapped().txn.id, "queue", partition_, TrueNow());
    }
    ProcessTxn(std::move(node.mapped()));
  }
}

void NattoServer::ProcessTxn(TxnState&& st) {
  // Conflicts with waiting (already processed, lock-blocked) transactions.
  bool conflicts_waiting = false;
  for (const auto& [k, other] : waiting_) {
    if (ConflictsLocal(st, other)) {
      conflicts_waiting = true;
      break;
    }
  }

  if (!txn::IsPrioritized(st.txn.priority)) {
    // Carousel-style OCC for base-level transactions.
    if (conflicts_waiting ||
        prepared_.HasConflict(st.local_reads, st.local_writes)) {
      stats_.occ_aborts->Inc();
      if (obs::Tracer* tr = engine_->cluster()->tracer()) {
        tr->Instant(st.txn.id, "occ_conflict", partition_, TrueNow());
        tr->AttributeAbort(st.txn.id, obs::AbortCause::kOccConflict);
      }
      finished_.insert(st.txn.id);
      NattoVote v;
      v.id = st.txn.id;
      v.partition = partition_;
      v.ok = false;
      v.reason = "OCC conflict";
      v.cause = obs::AbortCause::kOccConflict;
      auto* co = engine_->coordinator_at(st.txn.origin_site);
      SendTo(co->id(), kMessageHeaderBytes,
             [co, v = std::move(v)]() { co->HandleVote(v); });
      return;
    }
    PrepareNow(std::move(st), /*conditional=*/false, 0);
    return;
  }

  // High priority: locking-based. Wait (never abort) on conflicts.
  if (conflicts_waiting) {
    OrderKey key{st.txn.ts, st.txn.id};
    if (obs::Tracer* tr = engine_->cluster()->tracer()) {
      tr->SpanBegin(st.txn.id, "blocked", partition_, TrueNow());
    }
    waiting_.emplace(key, std::move(st));
    return;
  }
  std::vector<TxnId> blockers =
      prepared_.Conflicting(st.local_reads, st.local_writes);
  if (blockers.empty()) {
    PrepareNow(std::move(st), /*conditional=*/false, 0);
    return;
  }

  // Conditional prepare (Sec 3.3.2): a single low-priority prepared blocker
  // that another common participant is expected to priority-abort.
  if (engine_->options().conditional_prepare && blockers.size() == 1) {
    auto bit = prepared_txns_.find(blockers[0]);
    if (bit != prepared_txns_.end() &&
        txn::PriorityLevel(bit->second.txn.priority) <
            txn::PriorityLevel(st.txn.priority) &&
        !bit->second.conditional &&
        EstimatePriorityAbortElsewhere(st, bit->second)) {
      PrepareNow(std::move(st), /*conditional=*/true, blockers[0]);
      return;
    }
  }

  // Blocked: buffer in timestamp order; RECSF forwards the reads.
  if (engine_->options().recsf && blockers.size() == 1) {
    auto bit = prepared_txns_.find(blockers[0]);
    if (bit != prepared_txns_.end()) {
      ForwardReadsRemote(st, bit->second);
    }
  }
  OrderKey key{st.txn.ts, st.txn.id};
  if (obs::Tracer* tr = engine_->cluster()->tracer()) {
    tr->SpanBegin(st.txn.id, "blocked", partition_, TrueNow());
  }
  waiting_.emplace(key, std::move(st));
}

void NattoServer::PrepareNow(TxnState&& st, bool conditional,
                             TxnId condition_on) {
  TxnId id = st.txn.id;
  st.read_version += 1;
  st.conditional = conditional;
  st.condition_on = condition_on;

  prepared_.Add(id, st.local_reads, st.local_writes);
  for (Key k : st.local_reads) {
    SimTime& t = key_order_ts_[k];
    t = std::max(t, st.txn.ts);
  }
  for (Key k : st.local_writes) {
    SimTime& t = key_order_ts_[k];
    t = std::max(t, st.txn.ts);
  }
  if (conditional) {
    stats_.conditional_prepares->Inc();
    conditions_.emplace(condition_on, id);
  }
  const char* span_name = conditional ? "conditional_prepare" : "prepare";
  if (obs::Tracer* tr = engine_->cluster()->tracer()) {
    tr->SpanBegin(id, span_name, partition_, TrueNow());
  }

  int version = st.read_version;
  int origin = st.txn.origin_site;
  ServeReads(prepared_txns_.insert_or_assign(id, std::move(st)).first->second);

  // Replicate the prepare record, then vote. The vote is built when the
  // replication completes so it reflects the *current* conditional state:
  // a condition may resolve (or fail) while the prepare is replicating.
  engine_->cluster()->group(partition_)->Propose(
      [this, id, version, origin, span_name]() {
        if (obs::Tracer* tr = engine_->cluster()->tracer()) {
          tr->SpanEnd(id, span_name, partition_, TrueNow());
        }
        auto it = prepared_txns_.find(id);
        if (it == prepared_txns_.end()) return;  // aborted or CP discarded
        if (it->second.read_version != version) return;  // superseded
        NattoVote vote;
        vote.id = id;
        vote.partition = partition_;
        vote.ok = true;
        vote.read_version = version;
        vote.conditional = it->second.conditional;
        vote.condition_on = it->second.condition_on;
        auto* co = engine_->coordinator_at(origin);
        SendTo(co->id(), kMessageHeaderBytes,
               [co, vote = std::move(vote)]() { co->HandleVote(vote); });
      },
      [this, id, version, origin, span_name](bool timed_out) {
        // Prepare record lost to a leader failure: vote no; the
        // coordinator's abort cleans up the prepared state here.
        if (obs::Tracer* tr = engine_->cluster()->tracer()) {
          tr->SpanEnd(id, span_name, partition_, TrueNow());
        }
        auto it = prepared_txns_.find(id);
        if (it == prepared_txns_.end()) return;
        if (it->second.read_version != version) return;
        NattoVote vote;
        vote.id = id;
        vote.partition = partition_;
        vote.ok = false;
        vote.read_version = version;
        vote.reason = "replication failed";
        vote.cause = timed_out ? obs::AbortCause::kLeaderFailover
                               : obs::AbortCause::kReplicationFailed;
        auto* co = engine_->coordinator_at(origin);
        SendTo(co->id(), kMessageHeaderBytes,
               [co, vote = std::move(vote)]() { co->HandleVote(vote); });
      });
}

void NattoServer::ServeReads(TxnState& st) {
  std::vector<txn::ReadResult> results;
  results.reserve(st.local_reads.size());
  for (Key k : st.local_reads) {
    store::VersionedValue v = kv_.Get(k);
    results.push_back(txn::ReadResult{k, v.value, v.version});
  }
  auto* gw = engine_->gateway_at(st.txn.origin_site);
  TxnId id = st.txn.id;
  int partition = partition_;
  int version = st.read_version;
  // Sized before the capture moves `results` (argument order is unspecified).
  size_t bytes = WireKvBytes(results.size());
  SendTo(gw->id(), bytes,
         [gw, id, partition, version, results = std::move(results)]() mutable {
           gw->HandleReadResults(id, partition, version, std::move(results));
         });
}

void NattoServer::PriorityAbort(const TxnState& victim, const char* why) {
  (void)why;
  stats_.priority_aborts->Inc();
  if (obs::Tracer* tr = engine_->cluster()->tracer()) {
    tr->Instant(victim.txn.id, "priority_abort", partition_, TrueNow());
    tr->AttributeAbort(victim.txn.id, obs::AbortCause::kPriorityAbort);
  }
  finished_.insert(victim.txn.id);
  TxnId id = victim.txn.id;
  auto* co = engine_->coordinator_at(victim.txn.origin_site);
  SendTo(co->id(), kMessageHeaderBytes,
         [co, id]() { co->HandlePriorityAbort(id); });
}

void NattoServer::HandleCommit(TxnId id,
                               std::vector<std::pair<Key, Value>> writes) {
  if (finished_.contains(id)) return;
  auto it = prepared_txns_.find(id);
  if (it == prepared_txns_.end()) return;

  auto complete = [this, id](const std::vector<std::pair<Key, Value>>& w) {
    for (const auto& [k, v] : w) kv_.Apply(k, v, id);
    prepared_.Remove(id);
    prepared_txns_.erase(id);
    finished_.insert(id);
    ResolveConditions(id, /*low_aborted=*/false);
    RescanWaiting();
  };

  if (engine_->options().lecsf) {
    // LECSF (Sec 3.4): the commit is already fault tolerant at the
    // coordinator, so make the writes visible before replicating them.
    complete(writes);
    engine_->cluster()->group(partition_)->ProposeWithRetry([]() {});
  } else {
    // The coordinator already reported the commit, so the write data must
    // eventually replicate even across leader changes.
    engine_->cluster()->group(partition_)->ProposeWithRetry(
        [complete, writes = std::move(writes)]() { complete(writes); });
  }
}

void NattoServer::HandleAbort(TxnId id) {
  if (finished_.contains(id)) return;
  finished_.insert(id);
  // Remove from whichever stage it reached.
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (it->first.second == id) {
      queue_.erase(it);
      break;
    }
  }
  for (auto it = waiting_.begin(); it != waiting_.end(); ++it) {
    if (it->first.second == id) {
      waiting_.erase(it);
      break;
    }
  }
  if (prepared_txns_.contains(id)) {
    prepared_.Remove(id);
    prepared_txns_.erase(id);
  }
  ResolveConditions(id, /*low_aborted=*/true);
  RescanWaiting();
}

void NattoServer::ResolveConditions(TxnId low, bool low_aborted) {
  auto first = conditions_.lower_bound({low, 0});
  auto last = first;
  std::vector<TxnId> conditioned;
  for (; last != conditions_.end() && last->first == low; ++last) {
    conditioned.push_back(last->second);
  }
  if (conditioned.empty()) return;
  conditions_.erase(first, last);
  for (TxnId id : conditioned) {
    auto it = prepared_txns_.find(id);
    // Stale pair: the CP aborted, or was discarded and re-prepared.
    if (it == prepared_txns_.end() || !it->second.conditional ||
        it->second.condition_on != low) {
      continue;
    }
    TxnState& st = it->second;
    auto* co = engine_->coordinator_at(st.txn.origin_site);
    int partition = partition_;
    if (low_aborted) {
      // Condition satisfied: the conditional prepare becomes firm.
      stats_.cp_satisfied->Inc();
      st.conditional = false;
      st.condition_on = 0;
      SendTo(co->id(), kMessageHeaderBytes, [co, id, partition]() {
        co->HandleConditionResolved(id, partition, /*satisfied=*/true);
      });
    } else {
      // Condition failed: discard the conditional prepare and re-run the
      // normal path (the blocker just committed, so the retry will read its
      // writes once applied).
      stats_.cp_failed->Inc();
      TxnState moved = std::move(st);
      prepared_.Remove(id);
      prepared_txns_.erase(id);
      moved.conditional = false;
      moved.condition_on = 0;
      SendTo(co->id(), kMessageHeaderBytes, [co, id, partition]() {
        co->HandleConditionResolved(id, partition, /*satisfied=*/false);
      });
      OrderKey key{moved.txn.ts, moved.txn.id};
      if (obs::Tracer* tr = engine_->cluster()->tracer()) {
        tr->SpanBegin(moved.txn.id, "blocked", partition_, TrueNow());
      }
      waiting_.emplace(key, std::move(moved));
    }
  }
}

void NattoServer::RescanWaiting() {
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto it = waiting_.begin(); it != waiting_.end(); ++it) {
      TxnState& st = it->second;
      // Blocked by an earlier waiting transaction?
      bool blocked = false;
      for (auto jt = waiting_.begin(); jt != it; ++jt) {
        if (ConflictsLocal(st, jt->second)) {
          blocked = true;
          break;
        }
      }
      if (blocked) continue;
      if (prepared_.HasConflict(st.local_reads, st.local_writes)) continue;
      auto node = waiting_.extract(it);
      if (obs::Tracer* tr = engine_->cluster()->tracer()) {
        tr->SpanEnd(node.mapped().txn.id, "blocked", partition_, TrueNow());
      }
      PrepareNow(std::move(node.mapped()), /*conditional=*/false, 0);
      progress = true;
      break;  // iterators invalidated; restart scan
    }
  }
}

bool NattoServer::LowWillFinishInTime(const TxnState& low,
                                      const TxnState& high) const {
  // Expected time at which the low-priority transaction's commit reaches
  // this server, estimated from measured mean delays (Sec 3.3.1).
  const txn::Topology& topo = engine_->cluster()->topology();
  int coord_site = engine_->coordinator_at(low.txn.origin_site)->site();
  SimDuration votes_done = 0;
  for (const auto& [p, est] : low.txn.est_arrivals) {
    SimDuration repl = engine_->MajorityReplicationDelay(p);
    SimDuration to_coord =
        engine_->MeanOneWay(topo.LeaderSite(p), coord_site);
    votes_done = std::max(votes_done, repl + to_coord);
  }
  int coord_partition = topo.PartitionLedAt(coord_site);
  SimDuration coord_repl =
      coord_partition >= 0 ? engine_->MajorityReplicationDelay(coord_partition)
                           : 0;
  SimDuration decision = std::max(votes_done, coord_repl);
  SimDuration commit_here =
      decision + engine_->MeanOneWay(coord_site, site());
  return low.txn.ts + commit_here < high.txn.ts;
}

bool NattoServer::EstimatePriorityAbortElsewhere(const TxnState& high,
                                                 const TxnState& low) const {
  const txn::Topology& topo = engine_->cluster()->topology();
  for (const auto& [p, high_arrival] : high.txn.est_arrivals) {
    if (p == partition_) continue;
    // Do both transactions touch partition p with a real conflict there?
    std::vector<Key> hr = topo.LocalKeys(high.txn.read_set, p);
    std::vector<Key> hw = topo.LocalKeys(high.txn.write_set, p);
    std::vector<Key> lr = topo.LocalKeys(low.txn.read_set, p);
    std::vector<Key> lw = topo.LocalKeys(low.txn.write_set, p);
    bool conflict = Overlaps(hw, lw) || Overlaps(hw, lr) || Overlaps(hr, lw);
    if (!conflict) continue;
    // The other server priority-aborts `low` if `high` arrives while `low`
    // is still queued there, i.e. before low's execution timestamp.
    if (high_arrival < low.txn.ts) {
      if (engine_->options().pa_completion_estimate &&
          LowWillFinishInTime(low, high)) {
        continue;  // that server will suppress the priority abort
      }
      return true;
    }
  }
  return false;
}

void NattoServer::ForwardReadsRemote(const TxnState& high,
                                     const TxnState& blocker) {
  stats_.recsf_forwards->Inc();
  // Keys the blocker will overwrite are served by the blocker's coordinator
  // as soon as it commits; the rest are unaffected by the blocker and can be
  // read here immediately.
  std::vector<Key> covered;
  std::vector<Key> rest;
  for (Key k : high.local_reads) {
    if (std::find(blocker.local_writes.begin(), blocker.local_writes.end(),
                  k) != blocker.local_writes.end()) {
      covered.push_back(k);
    } else {
      rest.push_back(k);
    }
  }
  int version = high.read_version + 1;  // version the upcoming prepare uses
  TxnId reader = high.txn.id;
  int partition = partition_;

  if (!covered.empty()) {
    auto* co = engine_->coordinator_at(blocker.txn.origin_site);
    TxnId writer = blocker.txn.id;
    int reader_site = high.txn.origin_site;
    size_t bytes = WireKeysBytes(covered.size());
    SendTo(co->id(), bytes,
           [co, writer, reader, partition, covered = std::move(covered),
            version, reader_site]() mutable {
             co->HandleRecsfRead(writer, reader, partition, std::move(covered),
                                 version, reader_site);
           });
  }
  if (!rest.empty()) {
    std::vector<txn::ReadResult> results;
    results.reserve(rest.size());
    for (Key k : rest) {
      store::VersionedValue v = kv_.Get(k);
      results.push_back(txn::ReadResult{k, v.value, v.version});
    }
    auto* gw = engine_->gateway_at(high.txn.origin_site);
    size_t bytes = WireKvBytes(results.size());
    SendTo(gw->id(), bytes,
           [gw, reader, partition, version,
            results = std::move(results)]() mutable {
             gw->HandleReadResults(reader, partition, version,
                                   std::move(results));
           });
  }
}

// ---------------------------------------------------------------------------
// NattoCoordinator
// ---------------------------------------------------------------------------

NattoCoordinator::NattoCoordinator(NattoEngine* engine, int site,
                                   sim::NodeClock clock)
    : net::Node(engine->cluster()->transport(), site, clock),
      engine_(engine) {}

void NattoCoordinator::HandleBegin(NattoWireTxn txn,
                                   std::vector<int> participants) {
  const TxnId id = txn.id;
  if (decided_.contains(id)) return;
  TxnState& st = txns_[id];
  st.txn = std::move(txn);
  st.begun = true;
  st.participants = std::move(participants);
  if (st.priority_aborted) {
    Decide(id, /*commit=*/false, "priority abort",
           obs::AbortCause::kPriorityAbort);
    return;
  }
  if (st.failed) {
    Decide(id, /*commit=*/false, st.failed_reason, st.failed_cause);
    return;
  }
  MaybeDecide(id);
}

void NattoCoordinator::HandleVote(const NattoVote& vote) {
  if (decided_.contains(vote.id)) return;
  // Votes can overtake the Begin message under jitter: create state lazily.
  auto it = txns_.try_emplace(vote.id).first;
  TxnState& st = it->second;
  if (!vote.ok) {
    st.failed = true;
    st.failed_reason = vote.reason;
    st.failed_cause = vote.cause;
    if (st.begun) Decide(vote.id, /*commit=*/false, vote.reason, vote.cause);
    return;
  }
  VoteState& vs = VoteOf(st, vote.partition);
  vs.have = true;
  vs.ok = true;
  vs.version = vote.read_version;
  vs.conditional = vote.conditional;
  vs.condition_failed = false;
  MaybeDecide(vote.id);
}

void NattoCoordinator::HandleConditionResolved(TxnId id, int partition,
                                               bool satisfied) {
  if (decided_.contains(id)) return;
  auto it = txns_.try_emplace(id).first;
  TxnState& st = it->second;
  VoteState& vs = VoteOf(st, partition);
  if (satisfied) {
    vs.conditional = false;
  } else {
    // Discard the conditional vote; the server re-runs the normal path and
    // will vote again with a fresh read version.
    vs.have = false;
    vs.ok = false;
    vs.conditional = false;
  }
  MaybeDecide(id);
}

void NattoCoordinator::HandlePriorityAbort(TxnId id) {
  if (decided_.contains(id)) return;
  auto it = txns_.try_emplace(id).first;
  if (!it->second.begun) {
    it->second.priority_aborted = true;
    return;
  }
  Decide(id, /*commit=*/false, "priority abort",
         obs::AbortCause::kPriorityAbort);
}

void NattoCoordinator::HandleRound2(TxnId id,
                                    std::vector<std::pair<Key, Value>> writes,
                                    std::vector<std::pair<int, int>> versions,
                                    bool user_abort) {
  if (decided_.contains(id)) return;
  auto it = txns_.try_emplace(id).first;
  TxnState& st = it->second;
  if (user_abort) {
    st.user_abort = true;
    if (st.begun) {
      Decide(id, /*commit=*/false, "user abort", obs::AbortCause::kUserAbort);
    }
    return;
  }
  st.have_writes = true;
  st.writes = std::move(writes);
  st.round2_versions = std::move(versions);
  int generation = ++st.round2_generation;
  if (st.writes.empty()) {
    st.replicated_version = generation;
    MaybeDecide(id);
    return;
  }
  int local_partition = engine_->cluster()->topology().PartitionLedAt(site());
  NATTO_CHECK(local_partition >= 0);
  engine_->cluster()->group(local_partition)->Propose(
      [this, id, generation]() {
        auto it2 = txns_.find(id);
        if (it2 == txns_.end()) return;
        if (generation >= it2->second.replicated_version) {
          it2->second.replicated_version = generation;
        }
        MaybeDecide(id);
      },
      [this, id](bool timed_out) {
        if (decided_.contains(id)) return;
        auto it2 = txns_.find(id);
        if (it2 == txns_.end()) return;
        obs::AbortCause cause = timed_out ? obs::AbortCause::kLeaderFailover
                                          : obs::AbortCause::kReplicationFailed;
        if (!it2->second.begun) {
          it2->second.failed = true;
          it2->second.failed_reason = "replication failed";
          it2->second.failed_cause = cause;
          return;
        }
        Decide(id, /*commit=*/false, "replication failed", cause);
      });
}

NattoCoordinator::VoteState& NattoCoordinator::VoteOf(TxnState& st,
                                                      int partition) {
  for (auto& [p, vs] : st.votes) {
    if (p == partition) return vs;
  }
  return st.votes.emplace_back(partition, VoteState()).second;
}

void NattoCoordinator::MaybeDecide(TxnId id) {
  auto it = txns_.find(id);
  if (it == txns_.end()) return;
  TxnState& st = it->second;
  if (!st.begun) return;
  if (st.user_abort) {
    Decide(id, /*commit=*/false, "user abort", obs::AbortCause::kUserAbort);
    return;
  }
  if (st.participants.empty() || !st.have_writes) return;
  if (st.replicated_version < st.round2_generation) return;
  for (int p : st.participants) {
    auto of_p = [p](const auto& entry) { return entry.first == p; };
    auto v = std::find_if(st.votes.begin(), st.votes.end(), of_p);
    if (v == st.votes.end() || !v->second.have || !v->second.ok) return;
    if (v->second.conditional) return;  // condition unresolved
    auto rv = std::find_if(st.round2_versions.begin(),
                           st.round2_versions.end(), of_p);
    if (rv == st.round2_versions.end() || rv->second != v->second.version) {
      return;  // client's writes were computed from superseded reads
    }
  }
  Decide(id, /*commit=*/true, "", obs::AbortCause::kNone);
}

void NattoCoordinator::Decide(TxnId id, bool commit, const std::string& reason,
                              obs::AbortCause cause) {
  auto it = txns_.find(id);
  if (it == txns_.end()) return;
  TxnState st = std::move(it->second);
  txns_.erase(it);
  decided_.insert(id);

  const txn::Topology& topo = engine_->cluster()->topology();

  if (obs::Tracer* tr = engine_->cluster()->tracer()) {
    tr->Instant(id, commit ? "decide_commit" : "decide_abort", -1, TrueNow());
  }

  auto* gw = engine_->gateway_at(st.txn.origin_site);
  txn::TxnOutcome outcome =
      commit ? txn::TxnOutcome::kCommitted
             : (st.user_abort ? txn::TxnOutcome::kUserAborted
                              : txn::TxnOutcome::kAborted);
  SendTo(gw->id(), kMessageHeaderBytes,
         [gw, id, outcome, reason = std::string(reason), cause]() mutable {
           gw->HandleDecision(id, outcome, std::move(reason), cause);
         });

  for (int p : st.participants) {
    auto* srv = engine_->server(p);
    if (commit) {
      auto local = topo.LocalWrites(st.writes, p);
      size_t bytes = WireKvBytes(local.size());
      SendTo(srv->id(), bytes, [srv, id, local = std::move(local)]() mutable {
        srv->HandleCommit(id, std::move(local));
      });
    } else {
      SendTo(srv->id(), kMessageHeaderBytes,
             [srv, id]() { srv->HandleAbort(id); });
    }
  }
  // The decision fan-out is latency-critical: push any batched envelopes onto
  // the wire now instead of waiting for the max-delay timer. No-op when link
  // batching is off.
  transport()->Flush();

  if (commit) {
    // Keep committed write data available for RECSF readers.
    std::vector<std::pair<Key, Value>>& kept = committed_writes_[id];
    kept = std::move(st.writes);
    auto pending = recsf_waiting_.find(id);
    if (pending != recsf_waiting_.end()) {
      for (const PendingRecsf& r : pending->second) ServeRecsf(r, kept);
      recsf_waiting_.erase(pending);
    }
    // Bound the cache: drop the entry once it can no longer be useful.
    TxnId done_id = id;
    After(Seconds(10), [this, done_id]() { committed_writes_.erase(done_id); });
  } else {
    recsf_waiting_.erase(id);
  }
}

void NattoCoordinator::HandleRecsfRead(TxnId writer, TxnId reader,
                                       int partition, std::vector<Key> keys,
                                       int read_version, int reader_site) {
  auto cw = committed_writes_.find(writer);
  if (cw != committed_writes_.end()) {
    ServeRecsf(PendingRecsf{reader, partition, std::move(keys), read_version,
                            reader_site},
               cw->second);
    return;
  }
  if (txns_.contains(writer)) {
    recsf_waiting_[writer].push_back(PendingRecsf{
        reader, partition, std::move(keys), read_version, reader_site});
  }
  // Writer already aborted: the reader's normal path will serve the reads.
}

void NattoCoordinator::ServeRecsf(
    const PendingRecsf& req, const std::vector<std::pair<Key, Value>>& writes) {
  std::vector<txn::ReadResult> results;
  for (Key k : req.keys) {
    for (const auto& [wk, wv] : writes) {
      if (wk == k) {
        // Version is synthetic: RECSF readers match on read_version, not on
        // storage versions.
        results.push_back(txn::ReadResult{k, wv, 0});
        break;
      }
    }
  }
  auto* gw = engine_->gateway_at(req.reader_site);
  TxnId reader = req.reader;
  int partition = req.partition;
  int version = req.read_version;
  size_t bytes = WireKvBytes(results.size());
  SendTo(gw->id(), bytes,
         [gw, reader, partition, version,
          results = std::move(results)]() mutable {
           gw->HandleReadResults(reader, partition, version,
                                 std::move(results));
         });
}

// ---------------------------------------------------------------------------
// NattoGateway
// ---------------------------------------------------------------------------

NattoGateway::NattoGateway(NattoEngine* engine, int site, sim::NodeClock clock)
    : net::Node(engine->cluster()->transport(), site, clock),
      engine_(engine) {
  obs::MetricsRegistry* reg = engine->cluster()->metrics();
  const std::string prefix = "natto.gateway.s" + std::to_string(site) + ".";
  refresh_fetches_metric_ = reg->GetCounter(prefix + "refresh_fetches");
  quota_demotions_metric_ = reg->GetCounter(prefix + "quota_demotions");
}

void NattoGateway::RefreshEstimates() {
  if (refresh_running_) return;  // a refresh loop is already scheduled
  refresh_running_ = true;
  RefreshTick();
}

void NattoGateway::RefreshTick() {
  refresh_fetches_metric_->Inc();
  auto* proxy = engine_->proxy_at(site());
  // Fetch the proxy's current estimates with a local round trip.
  SendTo(proxy->id(), kMessageHeaderBytes, [this, proxy]() {
    const txn::Topology& topo = engine_->cluster()->topology();
    std::vector<std::pair<int, SimDuration>> ests;
    for (int p = 0; p < topo.num_partitions(); ++p) {
      if (proxy->HasEstimate(p)) {
        ests.emplace_back(p, proxy->EstimateDelayTo(p));
      }
    }
    proxy->SendTo(
        this->id(), kMessageHeaderBytes + ests.size() * 16, [this, ests]() {
          for (const auto& [p, d] : ests) cached_estimates_[p] = d;
        });
  });
  After(engine_->options().estimate_refresh, [this]() { RefreshTick(); });
}

SimDuration NattoGateway::EstimatedOneWay(int partition) const {
  auto it = cached_estimates_.find(partition);
  if (it != cached_estimates_.end()) return it->second;
  // Cold start (before the first proxy fetch): fall back to the matrix
  // average; the harness warms proxies up before measurement anyway.
  return engine_->MeanOneWay(
      site(), engine_->cluster()->topology().LeaderSite(partition));
}

bool NattoGateway::AdmitPrioritized() {
  double quota = engine_->options().high_priority_quota_tps;
  if (quota <= 0) return true;
  // Token bucket: refill at the quota rate, burst capacity of one second.
  SimTime now = TrueNow();
  quota_tokens_ = std::min(
      quota, quota_tokens_ + quota * ToSeconds(now - quota_last_refill_));
  quota_last_refill_ = now;
  if (quota_tokens_ >= 1.0) {
    quota_tokens_ -= 1.0;
    return true;
  }
  quota_demotions_metric_->Inc();
  return false;
}

void NattoGateway::StartTxn(const txn::TxnRequest& request,
                            txn::TxnCallback done) {
  const txn::Topology& topo = engine_->cluster()->topology();
  auto* coord = engine_->coordinator_at(site());

  std::vector<int> participants =
      topo.Participants(request.read_set, request.write_set);

  NattoWireTxn w;
  w.id = request.id;
  w.priority = request.priority;
  if (txn::IsPrioritized(w.priority) && !AdmitPrioritized()) {
    // Over the datacenter's priority quota: process at base priority
    // (Sec 3.2's shared-environment policy).
    w.priority = txn::Priority::kLow;
  }
  w.read_set = request.read_set;
  w.write_set = request.write_set;
  w.origin_site = site();

  SimTime now = LocalNow();
  SimDuration max_est = 0;
  for (int p : participants) {
    SimDuration est = EstimatedOneWay(p);
    w.est_arrivals.emplace_back(p, now + est);
    max_est = std::max(max_est, est);
  }
  w.ts = now + max_est + engine_->options().extra_ts_slack;

  if (obs::Tracer* tr = engine_->cluster()->tracer()) {
    tr->TxnBegin(request.id, txn::PriorityLevel(w.priority), TrueNow());
  }

  ClientTxn st;
  st.request = request;
  st.done = std::move(done);
  st.participants = participants;
  txns_[request.id] = std::move(st);

  SendTo(coord->id(),
         WireKeysBytes(request.read_set.size() + request.write_set.size()),
         [coord, w, participants]() mutable {
           coord->HandleBegin(std::move(w), std::move(participants));
         });

  size_t rp_bytes =
      WireKeysBytes(request.read_set.size() + request.write_set.size()) +
      participants.size() * 16;  // piggybacked arrival estimates
  for (int p : participants) {
    auto* srv = engine_->server(p);
    SendTo(srv->id(), rp_bytes, [srv, w]() mutable {
      srv->HandleReadPrepare(std::move(w));
    });
  }
}

void NattoGateway::HandleReadResults(TxnId id, int partition, int read_version,
                                     std::vector<txn::ReadResult> reads) {
  auto it = txns_.find(id);
  if (it == txns_.end()) return;
  ClientTxn& st = it->second;
  auto slot = std::find_if(st.reads.begin(), st.reads.end(),
                           [partition](const auto& e) {
                             return e.first == partition;
                           });
  if (slot == st.reads.end()) {
    slot = st.reads.emplace(st.reads.end(), partition, PartitionReads());
  }
  PartitionReads& pr = slot->second;
  if (read_version < pr.version) return;  // stale
  if (read_version > pr.version) {
    pr.version = read_version;
    pr.reads.clear();
  }
  for (const txn::ReadResult& r : reads) {
    auto have = std::find_if(
        pr.reads.begin(), pr.reads.end(),
        [&r](const txn::ReadResult& x) { return x.key == r.key; });
    if (have != pr.reads.end()) {
      *have = r;  // a later result for the key wins
    } else {
      pr.reads.push_back(r);
    }
  }
  MaybeSendRound2(id);
}

const txn::ReadResult* NattoGateway::PartitionReads::Find(Key key) const {
  for (const txn::ReadResult& r : reads) {
    if (r.key == key) return &r;
  }
  return nullptr;
}

const NattoGateway::PartitionReads* NattoGateway::ClientTxn::FindReads(
    int partition) const {
  for (const auto& [p, pr] : reads) {
    if (p == partition) return &pr;
  }
  return nullptr;
}

void NattoGateway::MaybeSendRound2(TxnId id) {
  auto it = txns_.find(id);
  if (it == txns_.end()) return;
  ClientTxn& st = it->second;
  const txn::Topology& topo = engine_->cluster()->topology();

  // All participants must have delivered a complete read set (possibly
  // empty) for some version.
  std::vector<txn::ReadResult> ordered;
  std::vector<std::pair<int, int>> versions;
  for (int p : st.participants) {
    const PartitionReads* pr = st.FindReads(p);
    if (pr == nullptr || pr->version < 1) return;
    for (Key k : st.request.read_set) {
      if (topo.PartitionOfKey(k) != p) continue;
      if (pr->Find(k) == nullptr) return;  // partial (RECSF half)
    }
    versions.emplace_back(p, pr->version);
  }
  ordered.reserve(st.request.read_set.size());
  for (Key k : st.request.read_set) {
    ordered.push_back(*st.FindReads(topo.PartitionOfKey(k))->Find(k));
  }

  // Skip if nothing changed since the last send.
  int generation = 0;
  for (const auto& [p, v] : versions) generation += v;
  if (generation <= st.round2_sent_generation) return;
  st.round2_sent_generation = generation;

  txn::WriteDecision d = st.request.compute_writes(ordered);
  auto* coord = engine_->coordinator_at(site());
  if (d.user_abort) {
    SendTo(coord->id(), kMessageHeaderBytes, [coord, id]() {
      coord->HandleRound2(id, {}, {}, /*user_abort=*/true);
    });
    return;
  }
  st.writes = d.writes;
  // Charged as a bare header: the size was historically read after the
  // capture below had moved the writes out (GCC evaluates the arguments
  // right to left), and the goldens pin that wire accounting.
  size_t bytes = WireKvBytes(0);
  SendTo(coord->id(), bytes,
         [coord, id, writes = std::move(d.writes),
          versions = std::move(versions)]() mutable {
           coord->HandleRound2(id, std::move(writes), std::move(versions),
                               /*user_abort=*/false);
         });
}

void NattoGateway::HandleDecision(TxnId id, txn::TxnOutcome outcome,
                                  std::string reason, obs::AbortCause cause) {
  auto it = txns_.find(id);
  if (it == txns_.end()) return;
  ClientTxn st = std::move(it->second);
  txns_.erase(it);

  // A commit reports the latest version of each read, in read-set order.
  std::vector<txn::ReadResult> reads;
  if (outcome == txn::TxnOutcome::kCommitted) {
    const txn::Topology& topo = engine_->cluster()->topology();
    for (Key k : st.request.read_set) {
      if (const PartitionReads* pr = st.FindReads(topo.PartitionOfKey(k))) {
        if (const txn::ReadResult* r = pr->Find(k)) reads.push_back(*r);
      }
    }
  }
  txn::ReportDecision(engine_->cluster()->tracer(), TrueNow(), id, outcome,
                      std::move(reason), cause, std::move(reads),
                      std::move(st.writes), st.done);
}

// ---------------------------------------------------------------------------
// NattoEngine
// ---------------------------------------------------------------------------

NattoEngine::NattoEngine(txn::Cluster* cluster, NattoOptions options)
    : cluster_(cluster), options_(options) {
  const txn::Topology& topo = cluster_->topology();
  for (int p = 0; p < topo.num_partitions(); ++p) {
    servers_.push_back(std::make_unique<NattoServer>(
        this, p, topo.LeaderSite(p), cluster_->MakeClock()));
  }
  for (int s = 0; s < topo.num_sites(); ++s) {
    net::Prober::Options po;
    po.probe_interval = options_.probe_interval;
    po.quantile = options_.estimate_quantile;
    proxies_.push_back(std::make_unique<net::Prober>(
        cluster_->transport(), s, cluster_->MakeClock(), po));
    for (int p = 0; p < topo.num_partitions(); ++p) {
      proxies_.back()->AddTarget(p, servers_[p].get());
    }
    proxies_.back()->Start();
    coordinators_.push_back(std::make_unique<NattoCoordinator>(
        this, cluster_->CoordinatorSite(s), cluster_->MakeClock()));
    gateways_.push_back(
        std::make_unique<NattoGateway>(this, s, cluster_->MakeClock()));
    gateways_.back()->RefreshEstimates();
  }
}

void NattoEngine::Execute(const txn::TxnRequest& request,
                          txn::TxnCallback done) {
  NATTO_CHECK(request.origin_site >= 0 &&
              request.origin_site < static_cast<int>(gateways_.size()));
  gateways_[request.origin_site]->StartTxn(request, std::move(done));
}

std::string NattoEngine::name() const {
  if (options_.recsf) return "Natto-RECSF";
  if (options_.conditional_prepare) return "Natto-CP";
  if (options_.priority_abort) return "Natto-PA";
  if (options_.lecsf) return "Natto-LECSF";
  return "Natto-TS";
}

SimDuration NattoEngine::MeanOneWay(int site_a, int site_b) const {
  return cluster_->matrix().OneWay(site_a, site_b);
}

SimDuration NattoEngine::MajorityReplicationDelay(int partition) const {
  const txn::Topology& topo = cluster_->topology();
  const net::LatencyMatrix& m = cluster_->matrix();
  const std::vector<int>& sites = topo.ReplicaSites(partition);
  int leader = sites[0];
  std::vector<SimDuration> rtts;
  for (size_t r = 1; r < sites.size(); ++r) {
    rtts.push_back(m.Rtt(leader, sites[r]));
  }
  if (rtts.empty()) return 0;
  std::sort(rtts.begin(), rtts.end());
  // Majority = leader + floor(n/2) followers; the slowest of those followers
  // gates commitment.
  size_t needed = sites.size() / 2;  // followers needed beyond the leader
  return rtts[needed - 1];
}

Value NattoEngine::DebugValue(Key key) {
  int p = cluster_->topology().PartitionOfKey(key);
  return servers_[p]->kv()->Get(key).value;
}

NattoServer::Stats NattoEngine::TotalStats() const {
  NattoServer::Stats total;
  for (const auto& s : servers_) {
    const NattoServer::Stats st = s->stats();
    total.priority_aborts += st.priority_aborts;
    total.pa_suppressed += st.pa_suppressed;
    total.conditional_prepares += st.conditional_prepares;
    total.cp_satisfied += st.cp_satisfied;
    total.cp_failed += st.cp_failed;
    total.order_violation_aborts += st.order_violation_aborts;
    total.occ_aborts += st.occ_aborts;
    total.recsf_forwards += st.recsf_forwards;
    total.stale_retries += st.stale_retries;
  }
  return total;
}

}  // namespace natto::core
