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
#include "store/kv_store.h"
#include "store/lock_table.h"
#include "txn/client_txn.h"
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
  int origin_site = 0;  // names the client's gateway and coordinator
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
  /// Runs the write computation once every read partition has answered
  /// and sends round 2 to the coordinator.
  void FinishRound1(txn::ClientTxn& st);

  SpannerEngine* engine_;
  std::unordered_map<TxnId, txn::ClientTxn> txns_;
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
  /// The coordinator and gateway serving clients at `site`. Wire records
  /// name a transaction's origin site; replies find these through it.
  SpannerCoordinator* coordinator_at(int site) {
    return coordinators_[site].get();
  }
  SpannerGateway* gateway_at(int site) { return gateways_[site].get(); }

  Value DebugValue(Key key) override;

 private:
  txn::Cluster* cluster_;
  SpannerOptions options_;
  std::vector<std::unique_ptr<SpannerServer>> servers_;
  std::vector<std::unique_ptr<SpannerCoordinator>> coordinators_;
  std::vector<std::unique_ptr<SpannerGateway>> gateways_;
};

}  // namespace natto::spanner

#endif  // NATTO_SPANNER_SPANNER_H_
