#include "tapir/tapir.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace natto::tapir {

// ---------------------------------------------------------------------------
// TapirReplica
// ---------------------------------------------------------------------------

TapirReplica::TapirReplica(TapirEngine* engine, int partition, int replica,
                           int site, sim::NodeClock clock)
    : net::Node(engine->cluster()->transport(), site, clock),
      engine_(engine),
      partition_(partition),
      replica_(replica),
      kv_(engine->cluster()->options().default_value) {
  obs::MetricsRegistry* m = engine->cluster()->metrics();
  const std::string prefix = "tapir.replica.p" + std::to_string(partition) +
                             ".r" + std::to_string(replica) + ".";
  prepare_vote_no_ = m->GetCounter(prefix + "prepare_vote_no");
}

void TapirReplica::HandleGet(TxnId id, std::vector<Key> keys,
                             int origin_site) {
  std::vector<txn::ReadResult> results;
  results.reserve(keys.size());
  for (Key k : keys) {
    store::VersionedValue v = kv_.Get(k);
    results.push_back(txn::ReadResult{k, v.value, v.version});
  }
  auto* gw = engine_->gateway_at(origin_site);
  int partition = partition_;
  SendTo(gw->id(), WireKvBytes(results.size()),
         [gw, id, partition, results]() {
           gw->HandleReadReply(id, partition, results);
         });
}

bool TapirReplica::Validates(
    const std::vector<std::pair<Key, uint64_t>>& read_versions,
    const std::vector<Key>& write_keys) const {
  // Stale read check against this replica's committed state.
  for (const auto& [k, version] : read_versions) {
    if (kv_.Get(k).version > version) return false;
  }
  std::vector<Key> read_keys;
  read_keys.reserve(read_versions.size());
  for (const auto& [k, v] : read_versions) read_keys.push_back(k);
  return !prepared_.HasConflict(read_keys, write_keys);
}

void TapirReplica::HandlePrepare(
    TxnId id, std::vector<std::pair<Key, uint64_t>> read_versions,
    std::vector<Key> write_keys, int origin_site) {
  bool ok = !finished_.contains(id) && Validates(read_versions, write_keys);
  // A single no vote is not an abort (a prepare majority may still form),
  // so the cause travels with the vote and is attributed only when the
  // gateway actually decides to abort.
  obs::AbortCause cause = obs::AbortCause::kNone;
  if (!ok) {
    prepare_vote_no_->Inc();
    cause = finished_.contains(id) ? obs::AbortCause::kStaleRetry
                                   : obs::AbortCause::kOccConflict;
  }
  if (ok) {
    std::vector<Key> read_keys;
    read_keys.reserve(read_versions.size());
    for (const auto& [k, v] : read_versions) read_keys.push_back(k);
    prepared_.Add(id, read_keys, write_keys);
  }
  auto* gw = engine_->gateway_at(origin_site);
  int partition = partition_;
  int replica = replica_;
  SendTo(gw->id(), kMessageHeaderBytes,
         [gw, id, partition, replica, ok, cause]() {
           gw->HandlePrepareVote(id, partition, replica, ok, cause);
         });
}

void TapirReplica::HandleFinalizePrepare(
    TxnId id, std::vector<std::pair<Key, uint64_t>> read_versions,
    std::vector<Key> write_keys, int origin_site) {
  // Adopt the majority decision even if local validation said no
  // (inconsistent replication: the consensus result overrides).
  if (!finished_.contains(id) && !prepared_.Contains(id)) {
    std::vector<Key> read_keys;
    read_keys.reserve(read_versions.size());
    for (const auto& [k, v] : read_versions) read_keys.push_back(k);
    prepared_.Add(id, read_keys, write_keys);
  }
  auto* gw = engine_->gateway_at(origin_site);
  int partition = partition_;
  int replica = replica_;
  SendTo(gw->id(), kMessageHeaderBytes, [gw, id, partition, replica]() {
    gw->HandleFinalizeAck(id, partition, replica);
  });
}

void TapirReplica::HandleCommit(TxnId id,
                                std::vector<std::pair<Key, Value>> writes) {
  if (finished_.contains(id)) return;
  for (const auto& [k, v] : writes) kv_.Apply(k, v, id);
  prepared_.Remove(id);
  finished_.insert(id);
}

void TapirReplica::HandleAbort(TxnId id) {
  prepared_.Remove(id);
  finished_.insert(id);
}

// ---------------------------------------------------------------------------
// TapirGateway
// ---------------------------------------------------------------------------

TapirGateway::TapirGateway(TapirEngine* engine, int site, sim::NodeClock clock)
    : net::Node(engine->cluster()->transport(), site, clock),
      engine_(engine) {
  obs::MetricsRegistry* m = engine->cluster()->metrics();
  const std::string prefix = "tapir.gateway.s" + std::to_string(site) + ".";
  slow_path_starts_ = m->GetCounter(prefix + "slow_path_starts");
  commits_ = m->GetCounter(prefix + "commits");
  aborts_ = m->GetCounter(prefix + "aborts");
}

void TapirGateway::StartTxn(const txn::TxnRequest& request,
                            txn::TxnCallback done) {
  const txn::Topology& topo = engine_->cluster()->topology();
  if (obs::Tracer* tr = engine_->cluster()->tracer()) {
    tr->TxnBegin(request.id, txn::PriorityLevel(request.priority), TrueNow());
    tr->SpanBegin(request.id, "round1", /*partition=*/-1, TrueNow());
  }
  // Read round: nearest replica of each partition holding read keys.
  std::vector<int> read_partitions = topo.Participants(request.read_set, {});
  TxnId id = request.id;
  auto slot = txns_.insert_or_assign(
      id, TxnState(request, std::move(done), read_partitions));
  TxnState& st = slot.first->second;
  st.participants = topo.Participants(request.read_set, request.write_set);

  if (read_partitions.empty()) {
    // Write-only transaction: go straight to the write computation.
    StartPrepareRound(st);
    return;
  }
  for (int p : read_partitions) {
    std::vector<Key> keys = topo.LocalKeys(request.read_set, p);
    int r = engine_->NearestReplica(p, site());
    auto* rep = engine_->replica(p, r);
    SendTo(rep->id(), WireKeysBytes(keys.size()),
           [rep, id, keys, origin = site()]() {
             rep->HandleGet(id, keys, origin);
           });
  }
}

void TapirGateway::HandleReadReply(TxnId id, int partition,
                                   std::vector<txn::ReadResult> reads) {
  auto it = txns_.find(id);
  if (it == txns_.end()) return;
  if (it->second.TakeReads(partition, reads)) StartPrepareRound(it->second);
}

void TapirGateway::StartPrepareRound(TxnState& st) {
  TxnId id = st.request.id;
  if (obs::Tracer* tr = engine_->cluster()->tracer()) {
    tr->SpanEnd(id, "round1", /*partition=*/-1, TrueNow());
  }

  txn::WriteDecision d = st.request.compute_writes(st.ReadsInOrder());
  if (d.user_abort) {
    if (obs::Tracer* tr = engine_->cluster()->tracer()) {
      tr->AttributeAbort(id, obs::AbortCause::kUserAbort);
    }
    TxnState aborted = std::move(st);
    txns_.erase(id);
    aborted.Report(engine_->cluster()->tracer(), TrueNow(),
                   txn::TxnOutcome::kUserAborted, "",
                   obs::AbortCause::kUserAbort);
    return;
  }
  st.writes = std::move(d.writes);

  const txn::Topology& topo = engine_->cluster()->topology();
  for (int p : st.participants) {
    st.partitions[p] = PartitionState{};
    // Per-partition footprint for validation.
    std::vector<std::pair<Key, uint64_t>> read_versions;
    for (Key k : topo.LocalKeys(st.request.read_set, p)) {
      read_versions.emplace_back(k, st.ReadOf(k).version);
    }
    std::vector<Key> write_keys = topo.LocalKeys(st.request.write_set, p);
    size_t bytes = WireKeysBytes(read_versions.size() + write_keys.size());
    if (obs::Tracer* tr = engine_->cluster()->tracer()) {
      tr->SpanBegin(id, "prepare", p, TrueNow());
    }
    for (int r = 0; r < topo.num_replicas(); ++r) {
      auto* rep = engine_->replica(p, r);
      SendTo(rep->id(), bytes,
             [rep, id, read_versions, write_keys, origin = site()]() {
               rep->HandlePrepare(id, read_versions, write_keys, origin);
             });
    }
  }
}

void TapirGateway::HandlePrepareVote(TxnId id, int partition, int replica,
                                     bool ok, obs::AbortCause cause) {
  (void)replica;
  auto it = txns_.find(id);
  if (it == txns_.end()) return;
  TxnState& st = it->second;
  auto p = st.partitions.find(partition);
  if (p == st.partitions.end()) return;
  PartitionState& ps = p->second;
  if (ps.phase != PartitionPhase::kVoting) return;
  if (ok) {
    ++ps.ok_votes;
  } else {
    ++ps.fail_votes;
    if (st.fail_cause == obs::AbortCause::kNone) st.fail_cause = cause;
  }
  OnPartitionUpdate(id, partition);
}

void TapirGateway::OnPartitionUpdate(TxnId id, int partition) {
  auto it = txns_.find(id);
  if (it == txns_.end()) return;
  TxnState& st = it->second;
  PartitionState& ps = st.partitions[partition];
  const txn::Topology& topo = engine_->cluster()->topology();
  int n = topo.num_replicas();
  int majority = n / 2 + 1;

  if (ps.phase == PartitionPhase::kVoting) {
    if (ps.ok_votes == n) {
      // Fast path: unanimous matching PREPARE-OK.
      ps.phase = PartitionPhase::kPreparedOk;
      if (obs::Tracer* tr = engine_->cluster()->tracer()) {
        tr->SpanEnd(id, "prepare", partition, TrueNow());
      }
    } else if (ps.fail_votes >= majority) {
      ps.phase = PartitionPhase::kAborted;
      if (obs::Tracer* tr = engine_->cluster()->tracer()) {
        tr->SpanEnd(id, "prepare", partition, TrueNow());
      }
    } else if (ps.ok_votes >= majority && ps.fail_votes > 0) {
      // Fast quorum impossible but a prepare majority exists: start the
      // slow path immediately (one consensus round to make it durable).
      ps.phase = PartitionPhase::kSlowPath;
      slow_path_starts_->Inc();
      if (obs::Tracer* tr = engine_->cluster()->tracer()) {
        tr->SpanBegin(id, "slow_path", partition, TrueNow());
      }
      std::vector<std::pair<Key, uint64_t>> read_versions;
      for (Key k : topo.LocalKeys(st.request.read_set, partition)) {
        read_versions.emplace_back(k, st.ReadOf(k).version);
      }
      std::vector<Key> write_keys =
          topo.LocalKeys(st.request.write_set, partition);
      size_t bytes = WireKeysBytes(read_versions.size() + write_keys.size());
      for (int r = 0; r < n; ++r) {
        auto* rep = engine_->replica(partition, r);
        SendTo(rep->id(), bytes, [rep, id, read_versions, write_keys,
                                  origin = site()]() {
          rep->HandleFinalizePrepare(id, read_versions, write_keys, origin);
        });
      }
    }
  }
  MaybeDecide(id);
}

void TapirGateway::HandleFinalizeAck(TxnId id, int partition, int replica) {
  (void)replica;
  auto it = txns_.find(id);
  if (it == txns_.end()) return;
  TxnState& st = it->second;
  auto p = st.partitions.find(partition);
  if (p == st.partitions.end()) return;
  PartitionState& ps = p->second;
  if (ps.phase != PartitionPhase::kSlowPath) return;
  const txn::Topology& topo = engine_->cluster()->topology();
  if (++ps.finalize_acks >= topo.num_replicas() / 2 + 1) {
    ps.phase = PartitionPhase::kPreparedOk;
    if (obs::Tracer* tr = engine_->cluster()->tracer()) {
      tr->SpanEnd(id, "slow_path", partition, TrueNow());
      tr->SpanEnd(id, "prepare", partition, TrueNow());
    }
  }
  MaybeDecide(id);
}

void TapirGateway::MaybeDecide(TxnId id) {
  auto it = txns_.find(id);
  if (it == txns_.end()) return;
  TxnState& st = it->second;
  bool all_ok = true;
  for (int p : st.participants) {
    PartitionPhase phase = st.partitions[p].phase;
    if (phase == PartitionPhase::kAborted) {
      Decide(id, /*commit=*/false, "prepare conflict",
             st.fail_cause == obs::AbortCause::kNone
                 ? obs::AbortCause::kOccConflict
                 : st.fail_cause);
      return;
    }
    if (phase != PartitionPhase::kPreparedOk) all_ok = false;
  }
  if (all_ok) Decide(id, /*commit=*/true, "", obs::AbortCause::kNone);
}

void TapirGateway::Decide(TxnId id, bool commit, const std::string& reason,
                          obs::AbortCause cause) {
  auto it = txns_.find(id);
  if (it == txns_.end()) return;
  TxnState st = std::move(it->second);
  txns_.erase(it);

  (commit ? commits_ : aborts_)->Inc();
  if (obs::Tracer* tr = engine_->cluster()->tracer()) {
    tr->Instant(id, commit ? "decide_commit" : "decide_abort", -1, TrueNow());
    if (!commit) tr->AttributeAbort(id, cause);
  }

  const txn::Topology& topo = engine_->cluster()->topology();
  for (int p : st.participants) {
    for (int r = 0; r < topo.num_replicas(); ++r) {
      auto* rep = engine_->replica(p, r);
      if (commit) {
        auto writes = topo.LocalWrites(st.writes, p);
        SendTo(rep->id(), WireKvBytes(writes.size()),
               [rep, id, writes]() { rep->HandleCommit(id, writes); });
      } else {
        SendTo(rep->id(), kMessageHeaderBytes,
               [rep, id]() { rep->HandleAbort(id); });
      }
    }
  }
  // The decision fan-out is latency-critical: push any batched envelopes onto
  // the wire now instead of waiting for the max-delay timer. No-op when link
  // batching is off.
  transport()->Flush();

  st.Report(engine_->cluster()->tracer(), TrueNow(),
            commit ? txn::TxnOutcome::kCommitted : txn::TxnOutcome::kAborted,
            reason, cause);
}

// ---------------------------------------------------------------------------
// TapirEngine
// ---------------------------------------------------------------------------

TapirEngine::TapirEngine(txn::Cluster* cluster) : cluster_(cluster) {
  const txn::Topology& topo = cluster_->topology();
  replicas_.resize(topo.num_partitions());
  for (int p = 0; p < topo.num_partitions(); ++p) {
    for (int r = 0; r < topo.num_replicas(); ++r) {
      replicas_[p].push_back(std::make_unique<TapirReplica>(
          this, p, r, topo.ReplicaSites(p)[r], cluster_->MakeClock()));
    }
  }
  for (int s = 0; s < topo.num_sites(); ++s) {
    gateways_.push_back(
        std::make_unique<TapirGateway>(this, s, cluster_->MakeClock()));
  }
}

void TapirEngine::Execute(const txn::TxnRequest& request,
                          txn::TxnCallback done) {
  NATTO_CHECK(request.origin_site >= 0 &&
              request.origin_site < static_cast<int>(gateways_.size()));
  gateways_[request.origin_site]->StartTxn(request, std::move(done));
}

int TapirEngine::NearestReplica(int partition, int site) const {
  const txn::Topology& topo = cluster_->topology();
  const net::LatencyMatrix& m = cluster_->matrix();
  int best = 0;
  SimDuration best_d = m.OneWay(site, topo.ReplicaSites(partition)[0]);
  for (int r = 1; r < topo.num_replicas(); ++r) {
    SimDuration d = m.OneWay(site, topo.ReplicaSites(partition)[r]);
    if (d < best_d) {
      best_d = d;
      best = r;
    }
  }
  return best;
}

Value TapirEngine::DebugValue(Key key) {
  int p = cluster_->topology().PartitionOfKey(key);
  return replicas_[p][0]->kv()->Get(key).value;
}

}  // namespace natto::tapir
