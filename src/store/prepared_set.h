#ifndef NATTO_STORE_PREPARED_SET_H_
#define NATTO_STORE_PREPARED_SET_H_

#include <cstddef>
#include <vector>

#include "common/flat_table.h"
#include "common/types.h"

namespace natto::store {

/// Tracks prepared transactions' read/write key footprints for OCC conflict
/// checks (Carousel, TAPIR, Natto low-priority path). Two transactions
/// conflict iff one writes a key the other reads or writes.
class PreparedSet {
 public:
  /// Registers a prepared transaction's footprint on this partition. A key
  /// may repeat within a set and may be both read and written.
  void Add(TxnId txn, const std::vector<Key>& reads,
           const std::vector<Key>& writes);

  /// Removes a transaction (commit applied or aborted).
  void Remove(TxnId txn);

  bool Contains(TxnId txn) const { return footprints_.contains(txn); }
  size_t size() const { return footprints_.size(); }

  /// True iff a transaction with the given footprint conflicts with any
  /// prepared transaction.
  bool HasConflict(const std::vector<Key>& reads,
                   const std::vector<Key>& writes) const;

  /// All prepared transactions conflicting with the given footprint,
  /// deduplicated, in insertion-id order (deterministic).
  std::vector<TxnId> Conflicting(const std::vector<Key>& reads,
                                 const std::vector<Key>& writes) const;

 private:
  struct Footprint {
    std::vector<Key> reads;
    std::vector<Key> writes;
  };

  /// Prepared transactions touching one key. Usually 0-2 ids each, so a
  /// linear scan beats any hashed set; each id appears at most once.
  struct KeyUse {
    std::vector<TxnId> readers;
    std::vector<TxnId> writers;
  };

  FlatMap<Footprint> footprints_;
  FlatMap<KeyUse> by_key_;
};

}  // namespace natto::store

#endif  // NATTO_STORE_PREPARED_SET_H_
