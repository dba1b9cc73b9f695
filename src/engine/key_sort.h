// RadixSortByKey: the engine's one sort of (key, row) pairs. A group-by's
// sort path (GroupAccumulator, MaterializedView), GroupTable::Emit and
// ViewIndex's bulk loads all sort packed KeyCodec keys tagged with a row
// or group id through it.
//
// The sort is stable: pairs with equal keys keep their input order. That
// is what lets the sort path fold each key's rows in visit order, and
// what makes a sort of (key, row) pairs fed in ascending row order the
// (key, row) order an index bulk-loads. It is an LSD radix sort over the
// bits the keys use, kKeySortDigitBits per pass, that skips the digits
// every key shares; an input already in key order is returned as is, and
// a short one goes to std::stable_sort. From kKeySortRadixMin pairs on,
// the pointer form sorts with a second buffer its caller owns and
// allocates nothing, so a pool's chunks can each sort one range of a
// buffer the calling thread allocated.

#ifndef OLAPIDX_ENGINE_KEY_SORT_H_
#define OLAPIDX_ENGINE_KEY_SORT_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/check.h"

namespace olapidx {

struct KeyRow {
  uint64_t key;
  uint32_t row;
};

// Below this many pairs RadixSortByKey uses std::stable_sort. The radix
// sort's fixed cost (zeroing and prefix-summing 2^kKeySortDigitBits
// counters per pass) beats n log n only from about 1,800 pairs of 54-bit
// keys on (measured on a Xeon core; at 250k pairs radix takes ~13 ms,
// std::sort ~30 ms).
inline constexpr size_t kKeySortRadixMin = 2048;
inline constexpr int kKeySortDigitBits = 11;
inline constexpr int kKeySortMaxPasses =
    (64 + kKeySortDigitBits - 1) / kKeySortDigitBits;

inline bool KeysAscend(const KeyRow* begin, const KeyRow* end) {
  return std::is_sorted(begin, end, [](const KeyRow& a, const KeyRow& b) {
    return a.key < b.key;
  });
}

// Sorts the n pairs at `entries` by key, stably, with `scratch` (room for
// n pairs, contents ignored) as the second buffer; pairs already in key
// order, or fewer than kKeySortRadixMin, sort in place and never touch
// it. Returns the buffer that holds the sorted pairs: `entries` or
// `scratch`.
inline KeyRow* RadixSortByKey(KeyRow* entries, KeyRow* scratch, size_t n) {
  OLAPIDX_CHECK(n <= std::numeric_limits<uint32_t>::max());
  if (KeysAscend(entries, entries + n)) return entries;
  if (n < kKeySortRadixMin) {
    std::stable_sort(entries, entries + n,
                     [](const KeyRow& a, const KeyRow& b) {
                       return a.key < b.key;
                     });
    return entries;
  }
  constexpr size_t kBuckets = size_t{1} << kKeySortDigitBits;
  const auto digit = [](uint64_t key, int pass) {
    return static_cast<size_t>((key >> (pass * kKeySortDigitBits)) &
                               (kBuckets - 1));
  };
  uint64_t used_bits = 0;
  for (size_t i = 0; i < n; ++i) used_bits |= entries[i].key;
  const int passes =
      (static_cast<int>(std::bit_width(used_bits)) + kKeySortDigitBits - 1) /
      kKeySortDigitBits;
  // 32-bit counts (n fits) for every pass, filled in one read of the
  // pairs: 48 KiB of stack at 64-bit keys.
  std::array<std::array<uint32_t, kBuckets>, kKeySortMaxPasses> counts;
  for (int p = 0; p < passes; ++p) counts[static_cast<size_t>(p)].fill(0);
  for (size_t i = 0; i < n; ++i) {
    for (int p = 0; p < passes; ++p) {
      ++counts[static_cast<size_t>(p)][digit(entries[i].key, p)];
    }
  }
  KeyRow* from = entries;
  KeyRow* to = scratch;
  for (int p = 0; p < passes; ++p) {
    std::array<uint32_t, kBuckets>& count = counts[static_cast<size_t>(p)];
    if (count[digit(from[0].key, p)] == n) continue;
    uint32_t offset = 0;
    for (uint32_t& c : count) {
      const uint32_t bucket = c;
      c = offset;
      offset += bucket;
    }
    for (size_t i = 0; i < n; ++i) to[count[digit(from[i].key, p)]++] = from[i];
    std::swap(from, to);
  }
  return from;
}

// Sorts `entries` by key, stably.
inline void RadixSortByKey(std::vector<KeyRow>& entries) {
  const size_t n = entries.size();
  std::vector<KeyRow> scratch(
      n < kKeySortRadixMin || KeysAscend(entries.data(), entries.data() + n)
          ? 0
          : n);
  if (RadixSortByKey(entries.data(), scratch.data(), n) != entries.data()) {
    entries.swap(scratch);
  }
}

}  // namespace olapidx

#endif  // OLAPIDX_ENGINE_KEY_SORT_H_
