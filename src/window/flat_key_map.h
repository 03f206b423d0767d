#ifndef KLINK_WINDOW_FLAT_KEY_MAP_H_
#define KLINK_WINDOW_FLAT_KEY_MAP_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "src/common/check.h"

namespace klink {

/// Keyed window state of one pane: a map from event key to a per-key value
/// (an aggregate), laid out as a dense entry vector in insertion order plus
/// an open-addressing index of int32 slots (linear probing, power-of-two
/// size, load <= 0.75).
///
/// Windowed operators open a pane, fold events into it key by key and fire
/// or drop it whole; keys are never erased one by one. So the table grows
/// only, and a pane's state costs O(log keys) allocations for its two
/// vectors instead of one node per key, which std::unordered_map pays on
/// every new key (DESIGN.md "Hot path"). Iteration is in insertion order;
/// callers that need a deterministic order across checkpoint/restore sort
/// the keys, as they did for the hash map.
template <typename V>
class FlatKeyMap {
 public:
  struct Entry {
    uint64_t key;
    V value;
  };

  FlatKeyMap() = default;

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Returns the value of `key`, inserting a value-initialized one if the
  /// key is absent; `second` tells whether it was inserted. The pointer is
  /// valid until the next insertion.
  std::pair<V*, bool> TryEmplace(uint64_t key) {
    if (4 * (entries_.size() + 1) > 3 * index_.size()) Grow();
    size_t slot = Home(key);
    while (true) {
      const int32_t i = index_[slot];
      if (i < 0) break;
      if (entries_[static_cast<size_t>(i)].key == key) {
        return {&entries_[static_cast<size_t>(i)].value, false};
      }
      slot = (slot + 1) & (index_.size() - 1);
    }
    index_[slot] = static_cast<int32_t>(entries_.size());
    entries_.push_back(Entry{key, V{}});
    return {&entries_.back().value, true};
  }

  /// Inserts (key, value) unless `key` is present; returns whether it was
  /// inserted (an existing value is left untouched).
  bool Insert(uint64_t key, const V& value) {
    const auto [v, inserted] = TryEmplace(key);
    if (inserted) *v = value;
    return inserted;
  }

  /// The value of `key`, or nullptr.
  V* Find(uint64_t key) {
    const FlatKeyMap& self = *this;
    return const_cast<V*>(self.Find(key));
  }
  const V* Find(uint64_t key) const {
    if (index_.empty()) return nullptr;
    size_t slot = Home(key);
    while (true) {
      const int32_t i = index_[slot];
      if (i < 0) return nullptr;
      if (entries_[static_cast<size_t>(i)].key == key) {
        return &entries_[static_cast<size_t>(i)].value;
      }
      slot = (slot + 1) & (index_.size() - 1);
    }
  }

  /// Sizes the table for `n` keys without further growth.
  void Reserve(size_t n) {
    KLINK_CHECK_LE(n, kMaxKeys);
    entries_.reserve(n);
    size_t slots = index_.empty() ? kMinSlots : index_.size();
    while (4 * n > 3 * slots) slots *= 2;
    if (slots != index_.size()) Rehash(slots);
  }

  /// Appends every key, in insertion order.
  void AppendKeys(std::vector<uint64_t>* out) const {
    for (const Entry& e : entries_) out->push_back(e.key);
  }

  /// Entries in insertion order.
  const Entry* begin() const { return entries_.data(); }
  const Entry* end() const { return entries_.data() + entries_.size(); }

 private:
  static constexpr size_t kMinSlots = 8;
  /// Entry positions are int32 and the index keeps a quarter free.
  static constexpr size_t kMaxKeys =
      static_cast<size_t>(std::numeric_limits<int32_t>::max()) / 2;

  /// Fibonacci hashing: the top bits of key * 2^64/phi pick the home slot,
  /// so strided and sequential keys spread across the index.
  size_t Home(uint64_t key) const {
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  void Grow() {
    KLINK_CHECK_LT(entries_.size(), kMaxKeys);
    Rehash(index_.empty() ? kMinSlots : 2 * index_.size());
  }

  void Rehash(size_t slots) {
    index_.assign(slots, -1);
    shift_ = 64;
    for (size_t s = slots; s > 1; s >>= 1) --shift_;
    for (size_t i = 0; i < entries_.size(); ++i) {
      size_t slot = Home(entries_[i].key);
      while (index_[slot] >= 0) slot = (slot + 1) & (slots - 1);
      index_[slot] = static_cast<int32_t>(i);
    }
  }

  std::vector<Entry> entries_;
  std::vector<int32_t> index_;
  /// 64 - log2(index_.size()); the Home() shift.
  int shift_ = 64;
};

}  // namespace klink

#endif  // KLINK_WINDOW_FLAT_KEY_MAP_H_
