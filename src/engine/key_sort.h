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
// a short one goes to std::stable_sort.

#ifndef OLAPIDX_ENGINE_KEY_SORT_H_
#define OLAPIDX_ENGINE_KEY_SORT_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
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

// Sorts `entries` by key, stably.
inline void RadixSortByKey(std::vector<KeyRow>& entries) {
  const size_t n = entries.size();
  OLAPIDX_CHECK(n <= std::numeric_limits<uint32_t>::max());
  const auto by_key = [](const KeyRow& a, const KeyRow& b) {
    return a.key < b.key;
  };
  if (std::is_sorted(entries.begin(), entries.end(), by_key)) return;
  if (n < kKeySortRadixMin) {
    std::stable_sort(entries.begin(), entries.end(), by_key);
    return;
  }
  constexpr size_t kBuckets = size_t{1} << kKeySortDigitBits;
  const auto digit = [](uint64_t key, int pass) {
    return static_cast<size_t>((key >> (pass * kKeySortDigitBits)) &
                               (kBuckets - 1));
  };
  uint64_t used_bits = 0;
  for (const KeyRow& e : entries) used_bits |= e.key;
  const int passes =
      (static_cast<int>(std::bit_width(used_bits)) + kKeySortDigitBits - 1) /
      kKeySortDigitBits;
  std::vector<std::array<size_t, kBuckets>> counts(
      static_cast<size_t>(passes));
  for (auto& c : counts) c.fill(0);
  for (const KeyRow& e : entries) {
    for (int p = 0; p < passes; ++p) {
      ++counts[static_cast<size_t>(p)][digit(e.key, p)];
    }
  }
  std::vector<KeyRow> scratch(n);
  for (int p = 0; p < passes; ++p) {
    std::array<size_t, kBuckets>& count = counts[static_cast<size_t>(p)];
    if (count[digit(entries[0].key, p)] == n) continue;
    size_t offset = 0;
    for (size_t& c : count) {
      const size_t bucket = c;
      c = offset;
      offset += bucket;
    }
    for (const KeyRow& e : entries) scratch[count[digit(e.key, p)]++] = e;
    entries.swap(scratch);
  }
}

}  // namespace olapidx

#endif  // OLAPIDX_ENGINE_KEY_SORT_H_
