// RadixSortByKey against std::stable_sort by key: the same sequence of
// (key, row) pairs, so pairs with equal keys keep their input order. Sizes
// on both sides of the std::stable_sort / radix cutoff, heavy duplicates,
// keys using only high bits, full 64-bit keys and inputs already in key
// order.

#include "engine/key_sort.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"

namespace olapidx {
namespace {

// `n` pairs with keys drawn by `key_of` and rows in a random order, so
// equal keys carry rows that are not ascending.
template <typename KeyFn>
std::vector<KeyRow> RandomPairs(size_t n, uint64_t seed, KeyFn&& key_of) {
  Pcg32 rng(seed);
  std::vector<KeyRow> pairs(n);
  for (size_t i = 0; i < n; ++i) {
    pairs[i] = KeyRow{key_of(rng), static_cast<uint32_t>(i)};
  }
  for (size_t i = n; i > 1; --i) {
    std::swap(pairs[i - 1].row,
              pairs[rng.NextBounded(static_cast<uint32_t>(i))].row);
  }
  return pairs;
}

void ExpectSortsLikeStableSort(std::vector<KeyRow> pairs) {
  std::vector<KeyRow> expected = pairs;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const KeyRow& a, const KeyRow& b) {
                     return a.key < b.key;
                   });
  RadixSortByKey(pairs);
  ASSERT_EQ(pairs.size(), expected.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    ASSERT_EQ(pairs[i].key, expected[i].key) << "pair " << i;
    ASSERT_EQ(pairs[i].row, expected[i].row) << "pair " << i;
  }
}

TEST(KeySortTest, StableAcrossSizes) {
  for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{17},
                   kKeySortRadixMin - 1, kKeySortRadixMin,
                   kKeySortRadixMin + 1, size_t{50000}}) {
    SCOPED_TRACE(::testing::Message() << n << " pairs");
    // About three pairs per key, over 40-bit keys.
    const uint32_t keys = static_cast<uint32_t>(std::max<size_t>(1, n / 3));
    ExpectSortsLikeStableSort(RandomPairs(n, n + 1, [&](Pcg32& rng) {
      return rng.NextBounded(keys) * 0x9E3779B97F4A7C15u % (uint64_t{1} << 40);
    }));
  }
}

TEST(KeySortTest, FewKeysManyDuplicates) {
  ExpectSortsLikeStableSort(RandomPairs(20000, 3, [](Pcg32& rng) {
    return uint64_t{rng.NextBounded(5)} << 30;
  }));
}

TEST(KeySortTest, HighBitsOnlyAndFullWidthKeys) {
  // Keys i << 44 leave the low four digits all zero: those passes are
  // skipped, and the top digit holds bit 63.
  ExpectSortsLikeStableSort(RandomPairs(10000, 5, [](Pcg32& rng) {
    return static_cast<uint64_t>(rng.NextBounded(1u << 20)) << 44;
  }));
  ExpectSortsLikeStableSort(RandomPairs(10000, 6, [](Pcg32& rng) {
    return (static_cast<uint64_t>(rng.Next()) << 32) | rng.NextBounded(4);
  }));
}

TEST(KeySortTest, SharedHighDigitsAndOneKey) {
  // Every key shares bits 11 and up: only the lowest digit is sorted.
  ExpectSortsLikeStableSort(RandomPairs(8000, 7, [](Pcg32& rng) {
    return (uint64_t{0x5a5a} << 11) | rng.NextBounded(1u << 11);
  }));
  ExpectSortsLikeStableSort(
      RandomPairs(8000, 8, [](Pcg32&) { return uint64_t{12345}; }));
}

TEST(KeySortTest, SortedInputIsLeftAsIs) {
  std::vector<KeyRow> pairs;
  for (uint32_t i = 0; i < 5000; ++i) pairs.push_back(KeyRow{i / 3, 4999 - i});
  const std::vector<KeyRow> before = pairs;
  RadixSortByKey(pairs);
  for (size_t i = 0; i < pairs.size(); ++i) {
    ASSERT_EQ(pairs[i].key, before[i].key);
    ASSERT_EQ(pairs[i].row, before[i].row);
  }
}

}  // namespace
}  // namespace olapidx
