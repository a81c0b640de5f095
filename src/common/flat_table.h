#ifndef NATTO_COMMON_FLAT_TABLE_H_
#define NATTO_COMMON_FLAT_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace natto {

/// Open-addressing hash map from uint64_t keys to `V`, for the hot
/// per-transaction protocol state (stores, prepared sets, tombstones).
///
/// Layout: one flat slot array (key + value inline), power-of-two
/// capacity, Robin Hood linear probing and backward-shift deletion, so an
/// erase leaves no tombstone behind and probe sequences stay short at the
/// 0.8 maximum load factor. Key 0 marks a vacant slot; the real key 0 lives
/// out of band in its own slot. Nothing is allocated until the first
/// insert, and the table only ever grows (doubling).
///
/// Determinism rule: there is deliberately no iteration API. Slot order
/// depends on the hash, so anything that walked the table could leak that
/// order into simulated outputs; point lookups cannot.
///
/// Pointers returned by find/try_emplace stay valid only until the next
/// insert (which may rehash) or erase (which shifts neighbours back).
template <typename V>
class FlatMap {
 public:
  FlatMap() = default;
  // Moves leave the source empty and usable (a defaulted move would leave
  // its counters behind over an emptied slot array).
  FlatMap(FlatMap&& other) noexcept { Swap(other); }
  FlatMap& operator=(FlatMap&& other) noexcept {
    FlatMap taken(std::move(other));
    Swap(taken);
    return *this;
  }

  size_t size() const { return used_ + (has_zero_ ? 1 : 0); }
  bool empty() const { return size() == 0; }

  V* find(uint64_t key) {
    if (key == 0) return has_zero_ ? &zero_value_ : nullptr;
    size_t pos = Locate(key);
    return pos == kNotFound ? nullptr : &slots_[pos].value;
  }
  const V* find(uint64_t key) const {
    if (key == 0) return has_zero_ ? &zero_value_ : nullptr;
    size_t pos = Locate(key);
    return pos == kNotFound ? nullptr : &slots_[pos].value;
  }
  bool contains(uint64_t key) const { return find(key) != nullptr; }

  /// Inserts a value-initialized V under `key` unless present. Returns the
  /// mapped value and whether it was inserted.
  std::pair<V*, bool> try_emplace(uint64_t key) {
    if (key == 0) {
      if (has_zero_) return {&zero_value_, false};
      has_zero_ = true;
      zero_value_ = V();
      return {&zero_value_, true};
    }
    if (size_t pos = Locate(key); pos != kNotFound) {
      return {&slots_[pos].value, false};
    }
    if ((used_ + 1) * 5 > slots_.size() * 4) Grow();
    ++used_;
    return {Place(key, V()), true};
  }

  V& operator[](uint64_t key) { return *try_emplace(key).first; }

  /// Removes `key`; returns the number of entries erased (0 or 1).
  size_t erase(uint64_t key) {
    if (key == 0) {
      if (!has_zero_) return 0;
      has_zero_ = false;
      zero_value_ = V();
      return 1;
    }
    size_t pos = Locate(key);
    if (pos == kNotFound) return 0;
    // Backward shift: pull every displaced successor one slot toward its
    // home until a vacancy or an entry already at home ends the run.
    for (size_t next = (pos + 1) & mask_;
         slots_[next].key != 0 && Distance(next, slots_[next].key) > 0;
         next = (next + 1) & mask_) {
      slots_[pos] = std::move(slots_[next]);
      pos = next;
    }
    slots_[pos].key = 0;
    slots_[pos].value = V();
    --used_;
    return 1;
  }

 private:
  static constexpr size_t kNotFound = ~size_t{0};
  static constexpr size_t kMinCapacity = 8;

  struct Slot {
    uint64_t key = 0;  // 0 = vacant
    [[no_unique_address]] V value{};
  };

  void Swap(FlatMap& other) noexcept {
    std::swap(slots_, other.slots_);
    std::swap(mask_, other.mask_);
    std::swap(shift_, other.shift_);
    std::swap(used_, other.used_);
    std::swap(has_zero_, other.has_zero_);
    std::swap(zero_value_, other.zero_value_);
  }

  size_t Home(uint64_t key) const {
    // Fibonacci hashing on the high-bit-folded key: TxnIds put the client
    // id in the upper half, sequential ids in the lower half.
    return static_cast<size_t>(((key ^ (key >> 32)) * 0x9E3779B97F4A7C15ull) >>
                               shift_);
  }

  size_t Distance(size_t pos, uint64_t key) const {
    return (pos - Home(key)) & mask_;
  }

  size_t Locate(uint64_t key) const {
    if (used_ == 0) return kNotFound;
    size_t pos = Home(key);
    for (size_t dist = 0;; ++dist, pos = (pos + 1) & mask_) {
      const Slot& s = slots_[pos];
      if (s.key == key) return pos;
      // Robin Hood invariant: a resident closer to its home than we are
      // to ours means `key` would have displaced it, so it is absent.
      if (s.key == 0 || Distance(pos, s.key) < dist) return kNotFound;
    }
  }

  /// Puts a key known to be absent into the table (capacity already
  /// ensured); returns where its value landed.
  V* Place(uint64_t key, V value) {
    Slot carry{key, std::move(value)};
    V* placed = nullptr;
    size_t pos = Home(key);
    for (size_t dist = 0;; ++dist, pos = (pos + 1) & mask_) {
      Slot& s = slots_[pos];
      if (s.key == 0) {
        s = std::move(carry);
        return placed != nullptr ? placed : &s.value;
      }
      size_t resident = Distance(pos, s.key);
      if (resident < dist) {
        std::swap(s, carry);
        if (placed == nullptr) placed = &s.value;
        dist = resident;
      }
    }
  }

  void Grow() {
    size_t cap = slots_.empty() ? kMinCapacity : slots_.size() * 2;
    std::vector<Slot> old = std::move(slots_);
    slots_ = std::vector<Slot>(cap);
    mask_ = cap - 1;
    shift_ = 64;
    for (size_t c = cap; c > 1; c >>= 1) --shift_;
    for (Slot& s : old) {
      if (s.key != 0) Place(s.key, std::move(s.value));
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  int shift_ = 64;
  size_t used_ = 0;  // occupied slots (key 0 excluded)
  bool has_zero_ = false;
  [[no_unique_address]] V zero_value_{};
};

/// Set form of FlatMap: membership of uint64_t keys, same layout and rules
/// (no iteration API; the set's slots are bare 8-byte keys).
class FlatSet {
 public:
  bool empty() const { return map_.empty(); }
  bool contains(uint64_t key) const { return map_.contains(key); }
  /// True when `key` was not yet present.
  bool insert(uint64_t key) { return map_.try_emplace(key).second; }
  size_t erase(uint64_t key) { return map_.erase(key); }

 private:
  struct Unit {};
  FlatMap<Unit> map_;
};

}  // namespace natto

#endif  // NATTO_COMMON_FLAT_TABLE_H_
