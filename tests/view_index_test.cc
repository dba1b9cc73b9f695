#include "engine/view_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "data/fact_generator.h"

namespace olapidx {
namespace {

CubeSchema SmallSchema() {
  return CubeSchema(
      {Dimension{"a", 8}, Dimension{"b", 5}, Dimension{"c", 3}});
}

TEST(ViewIndexTest, PrefixScanFindsExactlyMatchingRows) {
  FactTable fact = GenerateUniformFacts(SmallSchema(), 600, /*seed=*/5);
  MaterializedView view = MaterializedView::FromFactTable(
      fact, AttributeSet::Of({0, 1, 2}));
  ViewIndex index(view, IndexKey({1, 0, 2}));  // key order b, a, c
  EXPECT_EQ(index.num_entries(), view.num_rows());
  index.tree().CheckInvariants();

  // For every b value, the prefix scan must return exactly the rows with
  // that b.
  for (uint32_t b = 0; b < 5; ++b) {
    size_t expected = 0;
    for (size_t r = 0; r < view.num_rows(); ++r) {
      if (view.dim(r, 1) == b) ++expected;
    }
    size_t got = 0;
    size_t visited = index.ScanPrefix({b}, [&](uint32_t row) {
      EXPECT_EQ(view.dim(row, 1), b);
      ++got;
    });
    EXPECT_EQ(got, expected) << "b=" << b;
    EXPECT_EQ(visited, expected);
  }
}

TEST(ViewIndexTest, TwoLevelPrefix) {
  FactTable fact = GenerateUniformFacts(SmallSchema(), 600, /*seed=*/6);
  MaterializedView view = MaterializedView::FromFactTable(
      fact, AttributeSet::Of({0, 1}));
  ViewIndex index(view, IndexKey({1, 0}));
  for (uint32_t b = 0; b < 5; ++b) {
    for (uint32_t a = 0; a < 8; ++a) {
      size_t expected = 0;
      for (size_t r = 0; r < view.num_rows(); ++r) {
        if (view.dim(r, 1) == b && view.dim(r, 0) == a) ++expected;
      }
      EXPECT_EQ(index.ScanPrefix({b, a}, [](uint32_t) {}), expected);
    }
  }
}

TEST(ViewIndexTest, EmptyPrefixScansEverything) {
  FactTable fact = GenerateUniformFacts(SmallSchema(), 200, /*seed=*/8);
  MaterializedView view = MaterializedView::FromFactTable(
      fact, AttributeSet::Of({0, 2}));
  ViewIndex index(view, IndexKey({2, 0}));
  EXPECT_EQ(index.ScanPrefix({}, [](uint32_t) {}), view.num_rows());
}

TEST(ViewIndexTest, FatIndexKeysAreUnique) {
  // A fat index (permutation of all view attributes) has one entry per
  // view row with no duplicate keys.
  FactTable fact = GenerateUniformFacts(SmallSchema(), 400, /*seed=*/10);
  MaterializedView view = MaterializedView::FromFactTable(
      fact, AttributeSet::Of({0, 1, 2}));
  ViewIndex index(view, IndexKey({2, 1, 0}));
  uint64_t prev = 0;
  bool first = true;
  size_t n = index.tree().ScanRange(0, ~0ULL, [&](uint64_t k, uint32_t) {
    if (!first) {
      EXPECT_GT(k, prev);  // strictly increasing: unique
    }
    prev = k;
    first = false;
  });
  EXPECT_EQ(n, view.num_rows());
}

// The (key, row) entries of `index` over `view`, sorted by std::sort.
std::vector<std::pair<uint64_t, uint32_t>> SortedEntries(
    const MaterializedView& view, const ViewIndex& index) {
  const KeyCodec codec(view.schema(), index.key().ToVector());
  std::vector<std::pair<uint64_t, uint32_t>> entries;
  for (size_t r = 0; r < view.num_rows(); ++r) {
    entries.emplace_back(view.KeyAt(codec, r), static_cast<uint32_t>(r));
  }
  std::sort(entries.begin(), entries.end());
  return entries;
}

void ExpectLeavesInSortedOrder(const MaterializedView& view,
                               const ViewIndex& index) {
  index.tree().CheckInvariants();
  std::vector<std::pair<uint64_t, uint32_t>> leaves;
  index.tree().ForEach(
      [&](uint64_t key, uint32_t row) { leaves.emplace_back(key, row); });
  ASSERT_EQ(leaves, SortedEntries(view, index));
}

TEST(ViewIndexTest, BulkLoadAndRekeyGiveTheSortedEntryOrder) {
  // Every key of a 4-dim view: all 64 ordered subsequences of its
  // attributes. Partial keys repeat key values, whose rows must ascend. The
  // view's ~2,300 rows put the bulk load's sort on its radix path; a
  // refresh then re-keys every index.
  const CubeSchema schema({Dimension{"a", 12}, Dimension{"b", 10},
                           Dimension{"c", 8}, Dimension{"d", 6}});
  const FactTable all = GenerateUniformFacts(schema, 3600, /*seed=*/12);
  FactTable fact(schema);
  for (size_t r = 0; r < 3000; ++r) fact.Append(all.RowDims(r), 1.0);
  MaterializedView view =
      MaterializedView::FromFactTable(fact, AttributeSet::FromMask(0xf));
  ASSERT_GE(view.num_rows(), 2048u);
  std::vector<IndexKey> keys;
  for (AttributeSet subset : AttributeSet::FromMask(0xf).Subsets()) {
    std::vector<int> attrs = subset.ToVector();
    if (attrs.empty()) continue;
    do {
      keys.emplace_back(attrs);
    } while (std::next_permutation(attrs.begin(), attrs.end()));
  }
  ASSERT_EQ(keys.size(), 64u);
  std::vector<ViewIndex> indexes;
  for (const IndexKey& key : keys) {
    SCOPED_TRACE(key.ToString(schema.names()));
    indexes.emplace_back(view, key);
    ExpectLeavesInSortedOrder(view, indexes.back());
  }
  for (size_t r = 3000; r < all.num_rows(); ++r) {
    fact.Append(all.RowDims(r), 1.0);
  }
  const MaterializedView::DeltaResult delta =
      view.ApplyDelta(fact, 3000, fact.num_rows());
  ASSERT_FALSE(delta.inserted_rows.empty());
  for (ViewIndex& index : indexes) {
    SCOPED_TRACE(index.key().ToString(schema.names()));
    index.Rekey(view, delta.inserted_rows);
    ExpectLeavesInSortedOrder(view, index);
  }
}

TEST(ViewIndexDeathTest, KeyMustUseViewAttributes) {
  FactTable fact = GenerateUniformFacts(SmallSchema(), 50, /*seed=*/2);
  MaterializedView view =
      MaterializedView::FromFactTable(fact, AttributeSet::Of({0}));
  EXPECT_DEATH(ViewIndex(view, IndexKey({1})), "CHECK");
  EXPECT_DEATH(ViewIndex(view, IndexKey()), "CHECK");
}

}  // namespace
}  // namespace olapidx
