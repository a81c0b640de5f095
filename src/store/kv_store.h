#ifndef NATTO_STORE_KV_STORE_H_
#define NATTO_STORE_KV_STORE_H_

#include <cstdint>
#include <functional>

#include "common/flat_table.h"
#include "common/types.h"

namespace natto::store {

/// A key's current committed state. `version` starts at 0 for the initial
/// dataset and increments on every applied write; OCC validation compares
/// versions.
struct VersionedValue {
  Value value = 0;
  uint64_t version = 0;
  TxnId writer = 0;
};

/// Single-partition key-value store holding the latest committed version of
/// each key. The paper's datasets (e.g., 1M keys) are represented lazily:
/// unwritten keys read as `default_value_fn(key)` at version 0, so memory
/// scales with the write footprint, not the keyspace.
class KvStore {
 public:
  using DefaultValueFn = std::function<Value(Key)>;

  /// `default_value_fn` supplies the initial value of never-written keys
  /// (e.g., an initial SmallBank balance). Defaults to 0.
  explicit KvStore(DefaultValueFn default_value_fn = nullptr);

  /// Latest committed version of `key` (initial version if never written).
  VersionedValue Get(Key key) const;

  /// Applies a committed write, bumping the version.
  void Apply(Key key, Value value, TxnId writer);

  /// Number of materialized (written) keys.
  size_t materialized_size() const { return data_.size(); }

 private:
  DefaultValueFn default_value_fn_;
  FlatMap<VersionedValue> data_;
};

}  // namespace natto::store

#endif  // NATTO_STORE_KV_STORE_H_
