#include "store/kv_store.h"

namespace natto::store {

KvStore::KvStore(DefaultValueFn default_value_fn)
    : default_value_fn_(std::move(default_value_fn)) {}

VersionedValue KvStore::Get(Key key) const {
  if (const VersionedValue* v = data_.find(key)) return *v;
  VersionedValue v;
  v.value = default_value_fn_ ? default_value_fn_(key) : 0;
  v.version = 0;
  v.writer = 0;
  return v;
}

void KvStore::Apply(Key key, Value value, TxnId writer) {
  // A fresh entry is value-initialized at version 0, so the first apply
  // lands at version 1 like every later one bumps by one.
  VersionedValue& v = data_[key];
  v.value = value;
  ++v.version;
  v.writer = writer;
}

}  // namespace natto::store
