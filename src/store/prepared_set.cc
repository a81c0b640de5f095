#include "store/prepared_set.h"

#include <algorithm>

#include "common/logging.h"

namespace natto::store {

namespace {

void AddOnce(std::vector<TxnId>& ids, TxnId txn) {
  if (std::find(ids.begin(), ids.end(), txn) == ids.end()) ids.push_back(txn);
}

void EraseOnce(std::vector<TxnId>& ids, TxnId txn) {
  auto it = std::find(ids.begin(), ids.end(), txn);
  if (it != ids.end()) ids.erase(it);
}

}  // namespace

void PreparedSet::Add(TxnId txn, const std::vector<Key>& reads,
                      const std::vector<Key>& writes) {
  NATTO_DCHECK(!footprints_.contains(txn));
  footprints_[txn] = Footprint{reads, writes};
  for (Key k : reads) AddOnce(by_key_[k].readers, txn);
  for (Key k : writes) AddOnce(by_key_[k].writers, txn);
}

void PreparedSet::Remove(TxnId txn) {
  Footprint* found = footprints_.find(txn);
  if (found == nullptr) return;
  Footprint fp = std::move(*found);
  footprints_.erase(txn);
  auto drop = [this, txn](Key k, bool write) {
    KeyUse* ku = by_key_.find(k);
    if (ku == nullptr) return;  // repeated key, already emptied and erased
    EraseOnce(write ? ku->writers : ku->readers, txn);
    if (ku->readers.empty() && ku->writers.empty()) by_key_.erase(k);
  };
  for (Key k : fp.reads) drop(k, /*write=*/false);
  for (Key k : fp.writes) drop(k, /*write=*/true);
}

bool PreparedSet::HasConflict(const std::vector<Key>& reads,
                              const std::vector<Key>& writes) const {
  for (Key k : reads) {
    const KeyUse* ku = by_key_.find(k);
    if (ku != nullptr && !ku->writers.empty()) return true;
  }
  // An entry only exists while some reader or writer remains.
  for (Key k : writes) {
    if (by_key_.contains(k)) return true;
  }
  return false;
}

std::vector<TxnId> PreparedSet::Conflicting(
    const std::vector<Key>& reads, const std::vector<Key>& writes) const {
  std::vector<TxnId> out;
  auto add_all = [&out](const std::vector<TxnId>& ids) {
    out.insert(out.end(), ids.begin(), ids.end());
  };
  for (Key k : reads) {
    if (const KeyUse* ku = by_key_.find(k)) add_all(ku->writers);
  }
  for (Key k : writes) {
    if (const KeyUse* ku = by_key_.find(k)) {
      add_all(ku->writers);
      add_all(ku->readers);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace natto::store
