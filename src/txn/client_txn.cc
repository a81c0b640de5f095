#include "txn/client_txn.h"

#include <algorithm>

#include "common/logging.h"

namespace natto::txn {

void ReportDecision(obs::Tracer* tracer, SimTime now, TxnId id,
                    TxnOutcome outcome, std::string reason,
                    obs::AbortCause cause, std::vector<ReadResult> reads,
                    std::vector<std::pair<Key, Value>> writes,
                    const TxnCallback& done) {
  const bool committed = outcome == TxnOutcome::kCommitted;
  if (tracer != nullptr) {
    const char* name = committed ? "committed"
                       : outcome == TxnOutcome::kUserAborted ? "user_aborted"
                                                             : "aborted";
    tracer->TxnEnd(id, name, cause, now);
  }
  TxnResult result;
  result.outcome = outcome;
  result.abort_reason = std::move(reason);
  result.abort_cause = committed ? obs::AbortCause::kNone : cause;
  if (committed) {
    result.reads = std::move(reads);
    result.writes = std::move(writes);
  }
  done(result);
}

bool ClientTxn::TakeReads(int partition,
                          const std::vector<ReadResult>& results) {
  auto p = std::find(awaiting.begin(), awaiting.end(), partition);
  if (p == awaiting.end()) return false;
  awaiting.erase(p);
  for (const ReadResult& r : results) {
    auto have = std::find_if(
        reads.begin(), reads.end(),
        [&r](const ReadResult& x) { return x.key == r.key; });
    if (have != reads.end()) {
      *have = r;
    } else {
      reads.push_back(r);
    }
  }
  return awaiting.empty();
}

const ReadResult& ClientTxn::ReadOf(Key key) const {
  auto r = std::find_if(reads.begin(), reads.end(),
                        [key](const ReadResult& x) { return x.key == key; });
  NATTO_CHECK(r != reads.end()) << "missing read result for key " << key;
  return *r;
}

std::vector<ReadResult> ClientTxn::ReadsInOrder() const {
  std::vector<ReadResult> ordered;
  ordered.reserve(request.read_set.size());
  for (Key k : request.read_set) ordered.push_back(ReadOf(k));
  return ordered;
}

void ClientTxn::Report(obs::Tracer* tracer, SimTime now, TxnOutcome outcome,
                       std::string reason, obs::AbortCause cause) {
  std::vector<ReadResult> committed_reads;
  if (outcome == TxnOutcome::kCommitted) committed_reads = ReadsInOrder();
  ReportDecision(tracer, now, request.id, outcome, std::move(reason), cause,
                 std::move(committed_reads), std::move(writes), done);
}

}  // namespace natto::txn
