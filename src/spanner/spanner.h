#ifndef NATTO_SPANNER_SPANNER_H_
#define NATTO_SPANNER_SPANNER_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/flat_table.h"
#include "net/node.h"
#include "obs/abort_cause.h"
#include "obs/metrics.h"
#include "raft/raft.h"
#include "store/kv_store.h"
#include "store/lock_table.h"
#include "txn/cluster.h"
#include "txn/transaction.h"

namespace natto::spanner {

/// Prioritization policy of the 2PL+2PC system (Sec 4):
///  kNone — plain wound-wait; priorities ignored (the "2PL+2PC" baseline).
///  kPreempt — "2PL+2PC(P)": a high-priority transaction preempts
///    conflicting low-priority lock holders and smaller-timestamp waiters.
///  kPreemptOnWait — "2PL+2PC(POW)" [38]: a high-priority transaction
///    preempts a low-priority holder only if that holder is itself waiting
///    for another lock.
enum class PreemptPolicy { kNone, kPreempt, kPreemptOnWait };

struct SpannerOptions {
  PreemptPolicy policy = PreemptPolicy::kNone;

  /// Deadlock safety net: a request still waiting after this long applies
  /// pure age-based wound-wait to its blockers, overriding the
  /// priority-suppression rules. Needed because POW's "is the holder
  /// waiting" predicate is partition-local, which leaves cross-partition
  /// cycles undetected (real deployments run a deadlock detector here).
  SimDuration deadlock_probe = Seconds(2);
};

class SpannerEngine;

/// Metadata a server keeps about a transaction it is processing.
struct SpannerTxnMeta {
  TxnId id = 0;
  txn::Priority priority = txn::Priority::kLow;
  SimTime ts = 0;  // wound-wait age (client-assigned start timestamp)
  net::NodeId coordinator = -1;
  net::NodeId client = -1;
};

/// Partition leader: sequential read-lock phase, 2PC prepare with exclusive
/// locks and Raft-replicated prepare records, commit applies after
/// replication. Wound-wait plus the configured preemption policy.
class SpannerServer : public net::Node {
 public:
  SpannerServer(SpannerEngine* engine, int partition, int site,
                sim::NodeClock clock);

  void HandleReadLock(const SpannerTxnMeta& meta, std::vector<Key> keys);
  void HandlePrepare(const SpannerTxnMeta& meta,
                     std::vector<std::pair<Key, Value>> writes);
  void HandleCommit(TxnId id);
  void HandleAbort(TxnId id);

  store::KvStore* kv() { return &kv_; }
  const store::LockTable& locks() const { return locks_; }

 private:
  friend class SpannerEngine;

  struct LocalTxn {
    SpannerTxnMeta meta;
    int outstanding_grants = 0;
    std::vector<Key> read_keys;
    std::vector<std::pair<Key, Value>> writes;
    bool reads_served = false;
    bool prepare_voted = false;
    bool preparing = false;
  };

  /// Applies wound-wait + preemption to the blockers of `meta`'s request.
  void ResolveBlockers(const SpannerTxnMeta& meta,
                       const std::vector<TxnId>& blockers);

  /// Requests a global abort of `victim` through its coordinator.
  void WoundLocal(TxnId victim);

  /// POW: a holder that just started waiting becomes preemptible.
  void MaybePreemptNowWaiting(TxnId id);

  /// Timeout fallback: age-based wounding of whoever still blocks `id`.
  void DeadlockProbe(TxnId id, Key key);

  void AcquireAll(TxnId id, const std::vector<Key>& keys,
                  store::LockMode mode, std::function<void()> when_all);
  void ServeReads(TxnId id);
  void FinishPrepare(TxnId id);

  int LockPriority(const SpannerTxnMeta& meta) const;

  SpannerEngine* engine_;
  int partition_;
  raft::PayloadIdAllocator payload_ids_;
  store::KvStore kv_;
  store::LockTable locks_;
  std::unordered_map<TxnId, LocalTxn> txns_;
  FlatSet finished_;

  // Registered under spanner.p<N>. (lock-table contention counters live
  // under spanner.p<N>.locks.).
  obs::Counter* wounds_issued_ = nullptr;
  obs::Counter* stale_vote_no_ = nullptr;
};

/// 2PC coordinator colocated with the client's datacenter.
class SpannerCoordinator : public net::Node {
 public:
  SpannerCoordinator(SpannerEngine* engine, int site, sim::NodeClock clock);

  void HandleBegin(const SpannerTxnMeta& meta, std::vector<int> participants);
  void HandleRound2(TxnId id, std::vector<std::pair<Key, Value>> writes,
                    bool user_abort);
  /// No votes carry the refusing server's abort cause for attribution.
  void HandleVote(TxnId id, int partition, bool ok,
                  obs::AbortCause cause = obs::AbortCause::kNone);
  /// A participant wounded/preempted the transaction.
  void HandleWound(TxnId id);

 private:
  friend class SpannerEngine;

  struct TxnState {
    SpannerTxnMeta meta;
    /// Messages can overtake HandleBegin under network jitter; state is
    /// created lazily and nothing outward happens until begun.
    bool begun = false;
    std::vector<int> participants;
    std::unordered_set<int> ok_votes;
    bool any_fail = false;
    /// Cause of the first failed vote (first-wins; kNone until any_fail).
    obs::AbortCause fail_cause = obs::AbortCause::kNone;
    bool have_round2 = false;
    bool prepare_started = false;
    bool own_replicated = false;
    bool user_abort = false;
    bool wounded = false;
    std::vector<std::pair<Key, Value>> writes;
  };

  void StartPrepareRound(TxnId id);
  void MaybeCommit(TxnId id);
  void Decide(TxnId id, bool commit, const std::string& reason,
              obs::AbortCause cause);

  SpannerEngine* engine_;
  raft::PayloadIdAllocator payload_ids_;
  std::unordered_map<TxnId, TxnState> txns_;
  std::unordered_set<TxnId> early_wounds_;
  FlatSet decided_;

  // Registered under spanner.coord.s<site>.
  obs::Counter* wounds_received_ = nullptr;
  obs::Counter* commits_ = nullptr;
  obs::Counter* aborts_ = nullptr;
};

/// Client library: runs the sequential phases and reports the outcome.
class SpannerGateway : public net::Node {
 public:
  SpannerGateway(SpannerEngine* engine, int site, sim::NodeClock clock);

  void StartTxn(const txn::TxnRequest& request, txn::TxnCallback done);
  void HandleReadResults(TxnId id, int partition,
                         std::vector<txn::ReadResult> reads);
  void HandleDecision(TxnId id, txn::TxnOutcome outcome, std::string reason,
                      obs::AbortCause cause = obs::AbortCause::kNone);

 private:
  struct ClientTxn {
    txn::TxnRequest request;
    txn::TxnCallback done;
    std::unordered_set<int> awaiting_reads;
    std::unordered_map<Key, txn::ReadResult> reads;
    std::vector<std::pair<Key, Value>> writes;
    bool sent_round2 = false;
  };

  void MaybeFinishRound1(TxnId id);

  SpannerEngine* engine_;
  std::unordered_map<TxnId, ClientTxn> txns_;
};

/// Spanner-like 2PL+2PC baseline (sequential reads, 2PC, replication) with
/// optional priority preemption.
class SpannerEngine : public txn::TxnEngine {
 public:
  SpannerEngine(txn::Cluster* cluster, SpannerOptions options);

  void Execute(const txn::TxnRequest& request, txn::TxnCallback done) override;
  std::string name() const override;

  txn::Cluster* cluster() { return cluster_; }
  const SpannerOptions& options() const { return options_; }

  SpannerServer* server(int partition) { return servers_[partition].get(); }
  SpannerCoordinator* coordinator_at(int site) {
    return coordinators_[site].get();
  }
  SpannerGateway* gateway_at(int site) { return gateways_[site].get(); }
  SpannerCoordinator* coordinator_by_node(net::NodeId node);
  SpannerGateway* gateway_by_node(net::NodeId node);

  Value DebugValue(Key key) override;

  /// First replication payload id (distinct range from the other engine
  /// families so mixed-engine Raft logs stay readable).
  static constexpr uint64_t kPayloadIdBase = 1'000'000'000ull;

  /// Hands the next dense payload-id stripe to a proposing node (servers
  /// and coordinators call this from their constructors, on the main
  /// thread). Per-node striping replaces the old engine-wide `next_id++`
  /// counter, which proposers on different site lanes would race on under
  /// the site-parallel kernel. Must stay per-instance (not a process-wide
  /// static): two engines in one process would otherwise share stripes.
  raft::PayloadIdAllocator NewPayloadAllocator() {
    return raft::PayloadIdAllocator(kPayloadIdBase, payload_stripes_++);
  }

  /// Stripes handed out so far (test hook for the isolation invariant).
  uint32_t payload_stripes() const { return payload_stripes_; }

  /// Total replication payload ids issued across this engine's proposers
  /// (test hook: equal work on equal configs issues equal totals, and a
  /// fresh engine always starts at zero).
  uint64_t payload_ids_issued() const;

 private:
  txn::Cluster* cluster_;
  SpannerOptions options_;
  std::vector<std::unique_ptr<SpannerServer>> servers_;
  std::vector<std::unique_ptr<SpannerCoordinator>> coordinators_;
  std::vector<std::unique_ptr<SpannerGateway>> gateways_;
  std::unordered_map<net::NodeId, SpannerCoordinator*> coord_by_node_;
  std::unordered_map<net::NodeId, SpannerGateway*> gateway_by_node_;
  uint32_t payload_stripes_ = 0;
};

}  // namespace natto::spanner

#endif  // NATTO_SPANNER_SPANNER_H_
