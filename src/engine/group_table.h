// GroupTable: the engine's group-by hash table, mapping packed KeyCodec
// keys to distributive aggregate states. Query answering
// (GroupAccumulator) and view construction (MaterializedView) both
// aggregate through it.
//
// Open addressing with linear probing over a power-of-two slot array kept
// at most half full, probed from a mixing hash of the key. A slot holds a
// dense group id; keys and states live in contiguous arrays in first-seen
// order. A new group starts as AggregateState{} and merges every state of
// its key in visit order, so a group's float sums are a left fold in row
// order. Emit() sorts the group ids by key once (keys are distinct, so the
// order is unique) and hands the groups out in ascending key order.
// Clear() empties the table in time proportional to its groups, so a
// GroupAccumulator can aggregate one sorted segment of rows at a time in
// one table.

#ifndef OLAPIDX_ENGINE_GROUP_TABLE_H_
#define OLAPIDX_ENGINE_GROUP_TABLE_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/check.h"
#include "engine/aggregate_state.h"

namespace olapidx {

class GroupTable {
 public:
  GroupTable() { Rehash(kMinSlots); }

  size_t size() const { return keys_.size(); }

  // Merges `state` into the group of `key`, creating the group first.
  void Merge(uint64_t key, const AggregateState& state) {
    size_t slot = Hash(key) & mask_;
    for (uint32_t id = slots_[slot]; id != kEmpty; id = slots_[slot]) {
      OLAPIDX_DCHECK(id < keys_.size());  // no slot outlives Clear()
      if (keys_[id] == key) {
        states_[id].Merge(state);
        return;
      }
      slot = (slot + 1) & mask_;
    }
    if (2 * (keys_.size() + 1) > slots_.size()) {
      Rehash(2 * slots_.size());
      slot = EmptySlotFor(key);
    }
    OLAPIDX_CHECK(keys_.size() < kEmpty);
    slots_[slot] = static_cast<uint32_t>(keys_.size());
    keys_.push_back(key);
    states_.emplace_back();
    states_.back().Merge(state);
  }

  // Removes every group in O(groups), not O(slots): each group's slot is
  // found along its probe sequence and emptied. The slot array keeps its
  // size, so a table refilled after Clear() does not grow again.
  void Clear() {
    for (size_t id = 0; id < keys_.size(); ++id) {
      size_t slot = Hash(keys_[id]) & mask_;
      while (slots_[slot] != id) slot = (slot + 1) & mask_;
      slots_[slot] = kEmpty;
    }
    keys_.clear();
    states_.clear();
  }

  // Calls fn(key, state) once per group, in ascending key order.
  template <typename Fn>
  void Emit(Fn&& fn) const {
    const size_t n = keys_.size();
    if (std::is_sorted(keys_.begin(), keys_.end())) {
      // First-seen order is key order, e.g. a roll-up to a key prefix.
      for (size_t id = 0; id < n; ++id) fn(keys_[id], states_[id]);
      return;
    }
    for (const Entry& e : SortedEntries()) fn(e.key, states_[e.id]);
  }

 private:
  static constexpr uint32_t kEmpty = std::numeric_limits<uint32_t>::max();
  static constexpr size_t kMinSlots = 16;
  // Below this many groups Emit() uses std::sort. The radix sort's fixed
  // cost (zeroing and prefix-summing 2^kRadixBits counters per pass) beats
  // std::sort's n log n only from about 1,800 groups of 54-bit keys on
  // (measured on a Xeon core; at 250k groups radix takes ~13 ms, std::sort
  // ~30 ms).
  static constexpr size_t kRadixMinGroups = 2048;
  static constexpr int kRadixBits = 11;

  struct Entry {
    uint64_t key;
    uint32_t id;
  };

  // Murmur3's 64-bit finalizer: every key bit reaches the low slot bits,
  // so keys differing only in their high bits do not collide.
  static uint64_t Hash(uint64_t key) {
    key ^= key >> 33;
    key *= 0xff51afd7ed558ccdULL;
    key ^= key >> 33;
    key *= 0xc4ceb9fe1a85ec53ULL;
    key ^= key >> 33;
    return key;
  }

  size_t EmptySlotFor(uint64_t key) const {
    size_t slot = Hash(key) & mask_;
    while (slots_[slot] != kEmpty) slot = (slot + 1) & mask_;
    return slot;
  }

  void Rehash(size_t num_slots) {
    slots_.assign(num_slots, kEmpty);
    mask_ = num_slots - 1;
    for (size_t id = 0; id < keys_.size(); ++id) {
      slots_[EmptySlotFor(keys_[id])] = static_cast<uint32_t>(id);
    }
  }

  // (key, id) of every group in ascending key order: LSD radix sort over
  // the bits the keys use, kRadixBits per pass, skipping digits all keys
  // share.
  std::vector<Entry> SortedEntries() const {
    const size_t n = keys_.size();
    std::vector<Entry> entries(n);
    for (size_t id = 0; id < n; ++id) {
      entries[id] = Entry{keys_[id], static_cast<uint32_t>(id)};
    }
    if (n < kRadixMinGroups) {
      std::sort(entries.begin(), entries.end(),
                [](const Entry& a, const Entry& b) { return a.key < b.key; });
      return entries;
    }
    uint64_t used_bits = 0;
    for (uint64_t key : keys_) used_bits |= key;
    constexpr size_t kBuckets = size_t{1} << kRadixBits;
    const int passes =
        (static_cast<int>(std::bit_width(used_bits)) + kRadixBits - 1) /
        kRadixBits;
    std::vector<std::array<size_t, kBuckets>> counts(
        static_cast<size_t>(passes));
    for (auto& c : counts) c.fill(0);
    for (uint64_t key : keys_) {
      for (int p = 0; p < passes; ++p) {
        ++counts[static_cast<size_t>(p)][Digit(key, p)];
      }
    }
    std::vector<Entry> scratch(n);
    for (int p = 0; p < passes; ++p) {
      std::array<size_t, kBuckets>& count = counts[static_cast<size_t>(p)];
      if (count[Digit(entries[0].key, p)] == n) continue;
      size_t offset = 0;
      for (size_t& c : count) {
        const size_t bucket = c;
        c = offset;
        offset += bucket;
      }
      for (const Entry& e : entries) scratch[count[Digit(e.key, p)]++] = e;
      entries.swap(scratch);
    }
    return entries;
  }

  static size_t Digit(uint64_t key, int pass) {
    return static_cast<size_t>((key >> (pass * kRadixBits)) &
                               ((uint64_t{1} << kRadixBits) - 1));
  }

  size_t mask_ = 0;
  std::vector<uint32_t> slots_;
  std::vector<uint64_t> keys_;
  std::vector<AggregateState> states_;
};

}  // namespace olapidx

#endif  // OLAPIDX_ENGINE_GROUP_TABLE_H_
