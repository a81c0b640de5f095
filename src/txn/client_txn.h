#ifndef NATTO_TXN_CLIENT_TXN_H_
#define NATTO_TXN_CLIENT_TXN_H_

#include <string>
#include <utility>
#include <vector>

#include "common/sim_time.h"
#include "common/types.h"
#include "obs/abort_cause.h"
#include "obs/trace.h"
#include "txn/transaction.h"

namespace natto::txn {

/// Ends an attempt at its gateway, the same way for every engine: closes the
/// traced lifecycle under the outcome's name, builds the TxnResult and hands
/// it to `done`. A commit reports `reads` (round-1 reads in read-set order)
/// and `writes`, the checker input; any other outcome reports neither, and
/// only a non-commit carries `cause`.
void ReportDecision(obs::Tracer* tracer, SimTime now, TxnId id,
                    TxnOutcome outcome, std::string reason,
                    obs::AbortCause cause, std::vector<ReadResult> reads,
                    std::vector<std::pair<Key, Value>> writes,
                    const TxnCallback& done);

/// A gateway's record of one attempt whose round 1 returns a single read
/// result per key from each read partition (Carousel, 2PL+2PC, TAPIR).
/// Natto's gateway keeps versioned per-partition reads instead and reports
/// through ReportDecision directly.
struct ClientTxn {
  ClientTxn(const TxnRequest& request, TxnCallback done,
            const std::vector<int>& read_partitions)
      : request(request),
        done(std::move(done)),
        awaiting(read_partitions) {}

  /// Takes one partition's round-1 results. True when they were the last
  /// ones awaited, i.e. round 1 just completed. Results from a partition
  /// that is not awaited (a later fast-path replica) are dropped.
  bool TakeReads(int partition, const std::vector<ReadResult>& results);

  /// The round-1 result for `key`; NATTO_CHECKs that it arrived.
  const ReadResult& ReadOf(Key key) const;

  /// Round-1 reads in read-set order: the write computer's input.
  std::vector<ReadResult> ReadsInOrder() const;

  /// ReportDecision for this attempt (consumes `writes`).
  void Report(obs::Tracer* tracer, SimTime now, TxnOutcome outcome,
              std::string reason, obs::AbortCause cause);

  TxnRequest request;
  TxnCallback done;
  std::vector<int> awaiting;      // read partitions that have not answered
  std::vector<ReadResult> reads;  // one per key; a later result wins
  std::vector<std::pair<Key, Value>> writes;  // round 2's, for the report
};

}  // namespace natto::txn

#endif  // NATTO_TXN_CLIENT_TXN_H_
