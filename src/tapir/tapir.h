#ifndef NATTO_TAPIR_TAPIR_H_
#define NATTO_TAPIR_TAPIR_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/flat_table.h"
#include "net/node.h"
#include "obs/abort_cause.h"
#include "obs/metrics.h"
#include "store/kv_store.h"
#include "store/prepared_set.h"
#include "txn/client_txn.h"
#include "txn/cluster.h"
#include "txn/transaction.h"

namespace natto::tapir {

class TapirEngine;

/// One inconsistently-replicated storage replica: answers reads from local
/// state, validates prepares with OCC (version check + prepared-set
/// conflicts), and applies commits independently of its peers.
class TapirReplica : public net::Node {
 public:
  TapirReplica(TapirEngine* engine, int partition, int replica, int site,
               sim::NodeClock clock);

  /// Every request names the client's site, whose gateway gets the reply.
  void HandleGet(TxnId id, std::vector<Key> keys, int origin_site);

  /// OCC validation vote. `read_versions` are the versions the client read;
  /// a replica votes no on stale reads or conflicts with prepared txns.
  void HandlePrepare(TxnId id,
                     std::vector<std::pair<Key, uint64_t>> read_versions,
                     std::vector<Key> write_keys, int origin_site);

  /// Slow-path consensus: adopt the majority prepare decision.
  void HandleFinalizePrepare(TxnId id,
                             std::vector<std::pair<Key, uint64_t>> read_versions,
                             std::vector<Key> write_keys, int origin_site);

  void HandleCommit(TxnId id, std::vector<std::pair<Key, Value>> writes);
  void HandleAbort(TxnId id);

  store::KvStore* kv() { return &kv_; }
  int partition() const { return partition_; }
  int replica_index() const { return replica_; }

 private:
  bool Validates(const std::vector<std::pair<Key, uint64_t>>& read_versions,
                 const std::vector<Key>& write_keys) const;

  TapirEngine* engine_;
  int partition_;
  int replica_;
  store::KvStore kv_;
  store::PreparedSet prepared_;
  FlatSet finished_;

  // Registered under tapir.replica.p<N>.r<M>.
  obs::Counter* prepare_vote_no_ = nullptr;
};

/// Client library + 2PC coordinator in one (TAPIR offloads coordination to
/// clients): reads from the nearest replica, prepares at every replica of
/// each participant, decides on the fast path when votes are unanimous and
/// falls back to the slow path as soon as the fast path fails (the paper's
/// modification of the 500 ms-timeout reference implementation).
class TapirGateway : public net::Node {
 public:
  TapirGateway(TapirEngine* engine, int site, sim::NodeClock clock);

  void StartTxn(const txn::TxnRequest& request, txn::TxnCallback done);

  void HandleReadReply(TxnId id, int partition,
                       std::vector<txn::ReadResult> reads);
  /// No votes carry the refusing replica's abort cause for attribution.
  void HandlePrepareVote(TxnId id, int partition, int replica, bool ok,
                         obs::AbortCause cause = obs::AbortCause::kNone);
  void HandleFinalizeAck(TxnId id, int partition, int replica);

 private:
  enum class PartitionPhase { kVoting, kSlowPath, kPreparedOk, kAborted };

  struct PartitionState {
    PartitionPhase phase = PartitionPhase::kVoting;
    int ok_votes = 0;
    int fail_votes = 0;
    int finalize_acks = 0;
  };

  /// The client-side record plus TAPIR's per-partition prepare state.
  struct TxnState : txn::ClientTxn {
    using txn::ClientTxn::ClientTxn;
    std::vector<int> participants;
    std::unordered_map<int, PartitionState> partitions;
    /// Cause of the first failed vote (first-wins; kNone until a no vote).
    obs::AbortCause fail_cause = obs::AbortCause::kNone;
  };

  /// Runs the write computation once every read partition has answered
  /// and sends the prepares (or reports a user abort).
  void StartPrepareRound(TxnState& st);
  void OnPartitionUpdate(TxnId id, int partition);
  void MaybeDecide(TxnId id);
  void Decide(TxnId id, bool commit, const std::string& reason,
              obs::AbortCause cause);

  TapirEngine* engine_;
  std::unordered_map<TxnId, TxnState> txns_;

  // Registered under tapir.gateway.s<site>.
  obs::Counter* slow_path_starts_ = nullptr;
  obs::Counter* commits_ = nullptr;
  obs::Counter* aborts_ = nullptr;
};

/// TAPIR (SOSP'15) baseline.
class TapirEngine : public txn::TxnEngine {
 public:
  explicit TapirEngine(txn::Cluster* cluster);

  void Execute(const txn::TxnRequest& request, txn::TxnCallback done) override;
  std::string name() const override { return "TAPIR"; }

  txn::Cluster* cluster() { return cluster_; }
  TapirReplica* replica(int partition, int r) {
    return replicas_[partition][r].get();
  }
  /// The gateway serving clients at `site`; replicas reply through the
  /// origin site each request names.
  TapirGateway* gateway_at(int site) { return gateways_[site].get(); }

  /// Index of the replica of `partition` closest to `site`.
  int NearestReplica(int partition, int site) const;

  /// Test hook: value at replica 0 of the key's partition.
  Value DebugValue(Key key) override;

 private:
  txn::Cluster* cluster_;
  std::vector<std::vector<std::unique_ptr<TapirReplica>>> replicas_;
  std::vector<std::unique_ptr<TapirGateway>> gateways_;
};

}  // namespace natto::tapir

#endif  // NATTO_TAPIR_TAPIR_H_
