// GroupTable: the engine's group-by hash table, mapping packed KeyCodec
// keys to distributive aggregate states, and SortsGroups(), the rule that
// sends a wide group-by to the sort path instead (FoldSortedRuns). Query
// answering (GroupAccumulator) and view construction (MaterializedView)
// both aggregate through them.
//
// Open addressing with linear probing over a power-of-two slot array kept
// at most half full, probed from a mixing hash of the key. A slot holds a
// dense group id; keys and states live in contiguous arrays in first-seen
// order. A new group starts as AggregateState{} and merges every state of
// its key in visit order, so a group's float sums are a left fold in row
// order. Emit() sorts the group ids by key once (keys are distinct, so the
// order is unique; from kKeySortRadixMin groups through RadixSortByKey)
// and hands the groups out in ascending key order. Clear() empties the
// table in time proportional to its groups, so a GroupAccumulator can
// aggregate one sorted segment of rows at a time in one table.

#ifndef OLAPIDX_ENGINE_GROUP_TABLE_H_
#define OLAPIDX_ENGINE_GROUP_TABLE_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/check.h"
#include "cost/analytical_model.h"
#include "engine/aggregate_state.h"
#include "engine/key_sort.h"

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
    std::vector<KeyRow> entries(n);
    for (size_t id = 0; id < n; ++id) {
      entries[id] = KeyRow{keys_[id], static_cast<uint32_t>(id)};
    }
    if (n < kKeySortRadixMin) {
      // Distinct keys have one order, so the unstable std::sort finds it,
      // faster than the kernel's small-input std::stable_sort. A segmented
      // accumulator emits many such small tables.
      std::sort(entries.begin(), entries.end(),
                [](const KeyRow& a, const KeyRow& b) { return a.key < b.key; });
    } else {
      RadixSortByKey(entries);
    }
    for (const KeyRow& e : entries) fn(e.key, states_[e.row]);
  }

 private:
  static constexpr uint32_t kEmpty = std::numeric_limits<uint32_t>::max();
  static constexpr size_t kMinSlots = 16;
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

  size_t mask_ = 0;
  std::vector<uint32_t> slots_;
  std::vector<uint64_t> keys_;
  std::vector<AggregateState> states_;
};

// ---------------------------------------------------------------------------
// The sort path.
// ---------------------------------------------------------------------------

// A group-by whose groups are almost as many as its rows pays the table a
// probe and a new group for nearly every row, then sorts every group in
// Emit() anyway. Such a group-by keeps one (key, row) pair per row
// instead, sorts the pairs stably by key (RadixSortByKey) and folds each
// key's run from AggregateState{}, in visit order: the same left fold the
// table computes, so both paths give bit-identical groups.
//
// SortsGroups() chooses the path from a group-by's key domain and a bound
// on the rows fed to it: the sort path when at least kSortGroupsMinRows
// rows may arrive and the expected groups (ExpectedDistinct) reach
// 1/kSortGroupsMaxRowsPerGroup of them. A pair holds a 32-bit row id, so
// a larger bound hashes. The constants come from a one-core crossover of
// the two paths over row-store states and 40-bit keys: at 4,096 rows the
// sort path took 0.59x the hash path's time at 1.6 rows per group and
// 0.79x at 4.1, but 1.27x at 6.0; at 2,048 rows it won only below ~2.3
// rows per group, and at 1,024 never (the radix sort's fixed cost is 2^11
// counters per pass). On serve-cold's 250k-row base view it halves
// g{d1..d7}, 249,842 groups.
inline constexpr double kSortGroupsMinRows = 4096;
inline constexpr double kSortGroupsMaxRowsPerGroup = 4;

inline bool SortsGroups(double domain, double rows) {
  return rows >= kSortGroupsMinRows &&
         rows <= std::numeric_limits<uint32_t>::max() &&
         ExpectedDistinct(domain, rows) * kSortGroupsMaxRowsPerGroup >= rows;
}

// The number of distinct keys in `sorted`, whose pairs are sorted by key.
inline size_t CountSortedKeys(std::span<const KeyRow> sorted) {
  size_t keys = 0;
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i == 0 || sorted[i].key != sorted[i - 1].key) ++keys;
  }
  return keys;
}

// Calls emit(key, state) once per distinct key of `sorted` (pairs sorted
// stably by key), in ascending key order: `state` is AggregateState{}
// merged with state_of(row) for each of the key's pairs, in their order.
template <typename StateFn, typename EmitFn>
void FoldSortedRuns(std::span<const KeyRow> sorted, StateFn&& state_of,
                    EmitFn&& emit) {
  const size_t n = sorted.size();
  for (size_t i = 0; i < n;) {
    const uint64_t key = sorted[i].key;
    AggregateState state;
    do {
      state.Merge(state_of(sorted[i].row));
    } while (++i < n && sorted[i].key == key);
    emit(key, state);
  }
}

}  // namespace olapidx

#endif  // OLAPIDX_ENGINE_GROUP_TABLE_H_
