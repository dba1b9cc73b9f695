#include "engine/btree.h"

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace olapidx {
namespace {

std::vector<std::pair<uint64_t, uint32_t>> CollectAll(const BPlusTree& t) {
  std::vector<std::pair<uint64_t, uint32_t>> out;
  t.ScanRange(0, ~0ULL, [&](uint64_t k, uint32_t v) {
    out.emplace_back(k, v);
  });
  return out;
}

TEST(BPlusTreeTest, EmptyTree) {
  BPlusTree t;
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.height(), 0);
  EXPECT_EQ(t.ScanRange(0, ~0ULL, [](uint64_t, uint32_t) {}), 0u);
  t.CheckInvariants();
}

TEST(BPlusTreeTest, SingleInsertAndScan) {
  BPlusTree t;
  t.Insert(42, 7);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.height(), 1);
  auto all = CollectAll(t);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0], std::make_pair(uint64_t{42}, uint32_t{7}));
  t.CheckInvariants();
}

TEST(BPlusTreeTest, SplitsGrowHeight) {
  BPlusTree t(/*fanout=*/4);
  for (uint32_t i = 0; i < 100; ++i) t.Insert(i, i);
  EXPECT_EQ(t.size(), 100u);
  EXPECT_GT(t.height(), 2);
  t.CheckInvariants();
  auto all = CollectAll(t);
  ASSERT_EQ(all.size(), 100u);
  for (uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(all[i].first, i);
    EXPECT_EQ(all[i].second, i);
  }
}

TEST(BPlusTreeTest, RangeScanBounds) {
  BPlusTree t(/*fanout=*/4);
  for (uint64_t i = 0; i < 50; ++i) t.Insert(i * 2, static_cast<uint32_t>(i));
  // [10, 20] contains even keys 10..20: 6 entries.
  size_t n = t.ScanRange(10, 20, [&](uint64_t k, uint32_t) {
    EXPECT_GE(k, 10u);
    EXPECT_LE(k, 20u);
  });
  EXPECT_EQ(n, 6u);
  // Range between keys.
  EXPECT_EQ(t.ScanRange(11, 11, [](uint64_t, uint32_t) {}), 0u);
  // Range past the end.
  EXPECT_EQ(t.ScanRange(1000, 2000, [](uint64_t, uint32_t) {}), 0u);
}

TEST(BPlusTreeTest, DuplicateKeys) {
  BPlusTree t(/*fanout=*/4);
  for (uint32_t v = 0; v < 30; ++v) t.Insert(5, v);
  for (uint32_t v = 0; v < 10; ++v) t.Insert(7, 100 + v);
  t.CheckInvariants();
  EXPECT_EQ(t.ScanRange(5, 5, [](uint64_t, uint32_t) {}), 30u);
  EXPECT_EQ(t.ScanRange(7, 7, [](uint64_t, uint32_t) {}), 10u);
  EXPECT_EQ(t.ScanRange(5, 7, [](uint64_t, uint32_t) {}), 40u);
}

TEST(BPlusTreeTest, BulkLoadMatchesInserts) {
  std::vector<KeyRow> entries;
  Pcg32 rng(3);
  for (uint32_t i = 0; i < 1'000; ++i) {
    entries.emplace_back(rng.NextBounded(500), i);
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.key < b.key; });
  BPlusTree bulk(/*fanout=*/8);
  bulk.BulkLoad(entries);
  bulk.CheckInvariants();
  EXPECT_EQ(bulk.size(), entries.size());

  BPlusTree inserted(/*fanout=*/8);
  for (const auto& [k, v] : entries) inserted.Insert(k, v);
  inserted.CheckInvariants();

  // Same multiset of (key, value) pairs in both.
  auto a = CollectAll(bulk);
  auto b = CollectAll(inserted);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST(BPlusTreeTest, BulkLoadSingletonTailRebalanced) {
  // fanout 4, 5 entries: naive chunking would leave a 1-entry final leaf.
  std::vector<KeyRow> entries;
  for (uint32_t i = 0; i < 5; ++i) entries.emplace_back(i, i);
  BPlusTree t(/*fanout=*/4);
  t.BulkLoad(entries);
  t.CheckInvariants();
  EXPECT_EQ(t.size(), 5u);
  auto all = CollectAll(t);
  ASSERT_EQ(all.size(), 5u);
}

TEST(BPlusTreeTest, InsertAfterBulkLoad) {
  std::vector<KeyRow> entries;
  for (uint32_t i = 0; i < 200; ++i) entries.emplace_back(i * 3, i);
  BPlusTree t(/*fanout=*/8);
  t.BulkLoad(entries);
  // Interleave new keys between and beyond the loaded ones.
  for (uint32_t i = 0; i < 100; ++i) t.Insert(i * 6 + 1, 1000 + i);
  t.CheckInvariants();
  EXPECT_EQ(t.size(), 300u);
  EXPECT_EQ(t.ScanRange(0, ~0ULL, [](uint64_t, uint32_t) {}), 300u);
  EXPECT_EQ(t.ScanRange(1, 1, [](uint64_t, uint32_t) {}), 1u);
}

TEST(BPlusTreeTest, DuplicateBlockSpanningManyLeaves) {
  BPlusTree t(/*fanout=*/4);
  // 100 duplicates of one key surrounded by neighbours.
  t.Insert(5, 0);
  for (uint32_t v = 0; v < 100; ++v) t.Insert(10, v);
  t.Insert(15, 1);
  t.CheckInvariants();
  size_t seen = 0;
  t.ScanRange(10, 10, [&](uint64_t k, uint32_t) {
    EXPECT_EQ(k, 10u);
    ++seen;
  });
  EXPECT_EQ(seen, 100u);
  EXPECT_EQ(t.ScanRange(0, 9, [](uint64_t, uint32_t) {}), 1u);
  EXPECT_EQ(t.ScanRange(11, 20, [](uint64_t, uint32_t) {}), 1u);
}

TEST(BPlusTreeTest, ExtremeKeys) {
  BPlusTree t(/*fanout=*/4);
  t.Insert(0, 1);
  t.Insert(~0ULL, 2);
  t.Insert(~0ULL - 1, 3);
  t.CheckInvariants();
  EXPECT_EQ(t.ScanRange(~0ULL, ~0ULL, [](uint64_t, uint32_t) {}), 1u);
  EXPECT_EQ(t.ScanRange(0, 0, [](uint64_t, uint32_t) {}), 1u);
  EXPECT_EQ(t.ScanRange(0, ~0ULL, [](uint64_t, uint32_t) {}), 3u);
}

TEST(BPlusTreeTest, MoveSemantics) {
  BPlusTree a(/*fanout=*/4);
  for (uint32_t i = 0; i < 20; ++i) a.Insert(i, i);
  BPlusTree b = std::move(a);
  EXPECT_EQ(b.size(), 20u);
  b.CheckInvariants();
  BPlusTree c(/*fanout=*/4);
  c = std::move(b);
  EXPECT_EQ(c.size(), 20u);
  c.CheckInvariants();
}

// Model-based property test: the tree must agree with std::multimap on
// random workloads across fanouts.
class BPlusTreeModelTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(BPlusTreeModelTest, AgreesWithMultimap) {
  auto [fanout, seed] = GetParam();
  BPlusTree tree(fanout);
  std::multimap<uint64_t, uint32_t> model;
  Pcg32 rng(seed);
  for (uint32_t i = 0; i < 2'000; ++i) {
    uint64_t key = rng.NextBounded(300);
    tree.Insert(key, i);
    model.emplace(key, i);
  }
  tree.CheckInvariants();
  EXPECT_EQ(tree.size(), model.size());
  // Random range scans agree on count and key multiset.
  for (int trial = 0; trial < 50; ++trial) {
    uint64_t lo = rng.NextBounded(320);
    uint64_t hi = lo + rng.NextBounded(60);
    std::vector<uint64_t> tree_keys;
    tree.ScanRange(lo, hi, [&](uint64_t k, uint32_t) {
      tree_keys.push_back(k);
    });
    std::vector<uint64_t> model_keys;
    for (auto it = model.lower_bound(lo);
         it != model.end() && it->first <= hi; ++it) {
      model_keys.push_back(it->first);
    }
    EXPECT_EQ(tree_keys, model_keys) << "range [" << lo << "," << hi << "]";
  }
}

INSTANTIATE_TEST_SUITE_P(
    FanoutsAndSeeds, BPlusTreeModelTest,
    ::testing::Combine(::testing::Values(3, 4, 8, 64),
                       ::testing::Values(1u, 2u, 3u)));

TEST(BPlusTreeDeathTest, TinyFanoutRejected) {
  EXPECT_DEATH(BPlusTree(2), "CHECK");
}

TEST(BPlusTreeDeathTest, BulkLoadRequiresSorted) {
  BPlusTree t;
  std::vector<KeyRow> unsorted = {{5, 0}, {1, 1}};
  EXPECT_DEATH(t.BulkLoad(unsorted), "CHECK");
}

}  // namespace
}  // namespace olapidx
