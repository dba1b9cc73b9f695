#include "engine/view_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "data/fact_generator.h"
#include "engine/key_sort.h"

namespace olapidx {
namespace {

using Entry = std::pair<uint64_t, uint32_t>;

CubeSchema SmallSchema() {
  return CubeSchema(
      {Dimension{"a", 8}, Dimension{"b", 5}, Dimension{"c", 3}});
}

// The index's (key, row) entries as stored.
std::vector<Entry> StoredEntries(const ViewIndex& index) {
  EXPECT_EQ(index.keys().size(), index.rows().size());
  std::vector<Entry> entries;
  for (size_t i = 0; i < index.keys().size(); ++i) {
    entries.emplace_back(index.keys()[i], index.rows()[i]);
  }
  return entries;
}

// The (key, row) entries of `index` over `view`, sorted by std::sort.
std::vector<Entry> SortedEntries(const MaterializedView& view,
                                 const ViewIndex& index) {
  const KeyCodec codec(view.schema(), index.key().ToVector());
  std::vector<Entry> entries;
  for (size_t r = 0; r < view.num_rows(); ++r) {
    entries.emplace_back(view.KeyAt(codec, r), static_cast<uint32_t>(r));
  }
  std::sort(entries.begin(), entries.end());
  return entries;
}

void ExpectEntriesInSortedOrder(const MaterializedView& view,
                                const ViewIndex& index) {
  ASSERT_EQ(index.num_entries(), view.num_rows());
  ASSERT_EQ(StoredEntries(index), SortedEntries(view, index));
}

// The rows a probe visits, in visit order.
std::vector<uint32_t> Probe(const ViewIndex& index,
                            const std::vector<uint32_t>& prefix) {
  std::vector<uint32_t> rows;
  const size_t visited =
      index.ScanPrefix(prefix, [&](uint32_t row) { rows.push_back(row); });
  EXPECT_EQ(visited, rows.size());
  return rows;
}

std::vector<uint32_t> ProbeRange(const ViewIndex& index,
                                 const std::vector<uint32_t>& points,
                                 uint32_t range_lo, uint32_t range_hi) {
  std::vector<uint32_t> rows;
  const size_t visited = index.ScanPrefixRange(
      points, range_lo, range_hi, [&](uint32_t row) { rows.push_back(row); });
  EXPECT_EQ(visited, rows.size());
  return rows;
}

// The rows of `view` whose value of `attr` lies in [lo, hi], ascending.
std::vector<uint32_t> RowsWithValueIn(const MaterializedView& view, int attr,
                                      uint32_t lo, uint32_t hi) {
  std::vector<uint32_t> rows;
  for (size_t r = 0; r < view.num_rows(); ++r) {
    if (lo <= view.dim(r, attr) && view.dim(r, attr) <= hi) {
      rows.push_back(static_cast<uint32_t>(r));
    }
  }
  return rows;
}

// Every key over `attrs`: each ordered, non-empty subsequence.
std::vector<IndexKey> AllKeys(AttributeSet attrs) {
  std::vector<IndexKey> keys;
  for (AttributeSet subset : attrs.Subsets()) {
    std::vector<int> key = subset.ToVector();
    if (key.empty()) continue;
    do {
      keys.emplace_back(key);
    } while (std::next_permutation(key.begin(), key.end()));
  }
  return keys;
}

TEST(ViewIndexTest, PrefixScanFindsExactlyMatchingRows) {
  FactTable fact = GenerateUniformFacts(SmallSchema(), 600, /*seed=*/5);
  MaterializedView view = MaterializedView::FromFactTable(
      fact, AttributeSet::Of({0, 1, 2}));
  ViewIndex index(view, IndexKey({1, 0, 2}));  // key order b, a, c
  ExpectEntriesInSortedOrder(view, index);

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
  ASSERT_EQ(index.num_entries(), view.num_rows());
  // Strictly increasing: unique.
  EXPECT_TRUE(std::adjacent_find(index.keys().begin(), index.keys().end(),
                                 [](uint64_t a, uint64_t b) {
                                   return a >= b;
                                 }) == index.keys().end());
}

TEST(ViewIndexTest, EmptyViewScansNothingAndRekeysFromEmpty) {
  const CubeSchema schema = SmallSchema();
  FactTable fact(schema);
  MaterializedView view =
      MaterializedView::FromFactTable(fact, AttributeSet::Of({0, 1}));
  ASSERT_EQ(view.num_rows(), 0u);
  ViewIndex index(view, IndexKey({1, 0}));
  EXPECT_EQ(index.num_entries(), 0u);
  EXPECT_TRUE(Probe(index, {}).empty());
  EXPECT_TRUE(Probe(index, {3}).empty());
  EXPECT_TRUE(Probe(index, {3, 1}).empty());
  EXPECT_TRUE(ProbeRange(index, {}, 0, 4).empty());

  const FactTable rows = GenerateUniformFacts(schema, 120, /*seed=*/3);
  for (size_t r = 0; r < rows.num_rows(); ++r) {
    fact.Append(rows.RowDims(r), 1.0);
  }
  const MaterializedView::DeltaResult delta =
      view.ApplyDelta(fact, 0, fact.num_rows());
  ASSERT_EQ(delta.inserted_rows.size(), view.num_rows());
  index.Rekey(view, delta.inserted_rows);
  ExpectEntriesInSortedOrder(view, index);
  const ViewIndex rebuilt(view, index.key());
  EXPECT_EQ(StoredEntries(index), StoredEntries(rebuilt));
}

TEST(ViewIndexTest, ExtremeKeysAtSixtyFourBits) {
  // Four 16-bit attributes fill the key: (0, 0, 0, 0) packs to 0 and
  // (65535, ...) to ~0, the two ends of the search.
  const CubeSchema schema({Dimension{"a", 65536}, Dimension{"b", 65536},
                           Dimension{"c", 65536}, Dimension{"d", 65536}});
  const AttributeSet all = schema.AllAttributes();
  ASSERT_EQ(KeyCodec(schema, all.ToVector()).total_bits(), 64);
  constexpr uint32_t kMax = 65535;
  FactTable fact(schema);
  fact.Append({kMax, kMax, kMax, kMax}, 1.0);
  fact.Append({0, 0, 0, 0}, 1.0);
  fact.Append({kMax, 0, kMax, 0}, 1.0);
  fact.Append({0, kMax, 0, kMax}, 1.0);
  fact.Append({kMax, kMax, kMax, kMax - 1}, 1.0);
  fact.Append({7, 9, 11, 13}, 1.0);
  const MaterializedView view = MaterializedView::FromFactTable(fact, all);
  const ViewIndex index(view, IndexKey(all.ToVector()));
  ExpectEntriesInSortedOrder(view, index);
  EXPECT_EQ(index.keys().front(), 0u);
  EXPECT_EQ(index.keys().back(), ~0ULL);

  const auto row_with = [&](std::vector<uint32_t> dims) {
    for (size_t r = 0; r < view.num_rows(); ++r) {
      if (view.RowKey(r) == dims) return static_cast<uint32_t>(r);
    }
    ADD_FAILURE() << "no such row";
    return uint32_t{0};
  };
  const uint32_t lowest = row_with({0, 0, 0, 0});
  const uint32_t highest = row_with({kMax, kMax, kMax, kMax});
  const uint32_t below_highest = row_with({kMax, kMax, kMax, kMax - 1});
  EXPECT_EQ(Probe(index, {0, 0, 0, 0}), std::vector<uint32_t>{lowest});
  EXPECT_EQ(Probe(index, {kMax, kMax, kMax, kMax}),
            std::vector<uint32_t>{highest});
  EXPECT_EQ(Probe(index, {kMax, kMax, kMax}),
            (std::vector<uint32_t>{below_highest, highest}));
  EXPECT_EQ(ProbeRange(index, {kMax, kMax, kMax}, kMax, kMax),
            std::vector<uint32_t>{highest});
  EXPECT_EQ(ProbeRange(index, {}, 0, kMax).size(), view.num_rows());
  EXPECT_EQ(ProbeRange(index, {}, 0, 0).size(), 2u);
  EXPECT_EQ(ProbeRange(index, {}, kMax, kMax).size(), 3u);
  EXPECT_EQ(Probe(index, {}).size(), view.num_rows());
}

TEST(ViewIndexTest, AdjacentDuplicateRunsSplitAtTheirKeys) {
  // A partial key on `a` over 30 rows with a = 5 and 10 with a = 7: two
  // runs of repeated key values with no value between them.
  const CubeSchema schema({Dimension{"a", 8}, Dimension{"b", 40}});
  FactTable fact(schema);
  for (uint32_t b = 0; b < 40; ++b) fact.Append({b < 30 ? 5u : 7u, b}, 1.0);
  const MaterializedView view =
      MaterializedView::FromFactTable(fact, schema.AllAttributes());
  const ViewIndex index(view, IndexKey({0}));
  ExpectEntriesInSortedOrder(view, index);
  const auto rows_with_a = [&](uint32_t lo, uint32_t hi) {
    return RowsWithValueIn(view, 0, lo, hi);
  };
  ASSERT_EQ(rows_with_a(5, 5).size(), 30u);
  ASSERT_EQ(rows_with_a(7, 7).size(), 10u);
  EXPECT_EQ(Probe(index, {5}), rows_with_a(5, 5));
  EXPECT_EQ(Probe(index, {7}), rows_with_a(7, 7));
  EXPECT_TRUE(Probe(index, {6}).empty());
  EXPECT_EQ(ProbeRange(index, {}, 5, 5), rows_with_a(5, 5));
  EXPECT_EQ(ProbeRange(index, {}, 5, 6), rows_with_a(5, 5));
  EXPECT_EQ(ProbeRange(index, {}, 6, 7), rows_with_a(7, 7));
  // Both runs, the 5s before the 7s.
  std::vector<uint32_t> both = rows_with_a(5, 5);
  for (uint32_t row : rows_with_a(7, 7)) both.push_back(row);
  EXPECT_EQ(ProbeRange(index, {}, 5, 7), both);
  EXPECT_EQ(Probe(index, {}), both);
}

TEST(ViewIndexTest, LongDuplicateRunVisitsRowsInAscendingOrder) {
  // A partial key on a two-valued attribute: each key value repeats for
  // far more than 64 entries, scattered across the view's row order.
  const CubeSchema schema(
      {Dimension{"a", 40}, Dimension{"b", 30}, Dimension{"c", 2}});
  const FactTable fact = GenerateUniformFacts(schema, 4000, /*seed=*/21);
  const MaterializedView view =
      MaterializedView::FromFactTable(fact, schema.AllAttributes());
  const ViewIndex index(view, IndexKey({2}));
  ExpectEntriesInSortedOrder(view, index);
  for (uint32_t c = 0; c < 2; ++c) {
    std::vector<uint32_t> expected;
    for (size_t r = 0; r < view.num_rows(); ++r) {
      if (view.dim(r, 2) == c) expected.push_back(static_cast<uint32_t>(r));
    }
    ASSERT_GT(expected.size(), 64u * 8);
    EXPECT_EQ(Probe(index, {c}), expected) << "c=" << c;
    EXPECT_EQ(ProbeRange(index, {}, c, c), expected) << "c=" << c;
  }
}

TEST(ViewIndexTest, ScanPrefixRangeBounds) {
  const FactTable fact = GenerateUniformFacts(SmallSchema(), 500, /*seed=*/4);
  const MaterializedView view =
      MaterializedView::FromFactTable(fact, AttributeSet::Of({0, 1, 2}));
  const ViewIndex index(view, IndexKey({0, 1, 2}));
  for (uint32_t a = 0; a < 8; ++a) {
    for (uint32_t b = 0; b < 5; ++b) {
      // A one-value range is the point probe.
      EXPECT_EQ(ProbeRange(index, {a}, b, b), Probe(index, {a, b}));
      // An inverted range is empty and calls nothing.
      if (b > 0) {
        EXPECT_EQ(index.ScanPrefixRange({a}, b, b - 1,
                                        [](uint32_t) { FAIL(); }),
                  0u);
      }
    }
    EXPECT_EQ(ProbeRange(index, {a}, 0, 4), Probe(index, {a}));
    if (a > 0) {
      EXPECT_EQ(index.ScanPrefixRange({}, a, a - 1, [](uint32_t) { FAIL(); }),
                0u);
    }
  }
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
  ASSERT_GE(view.num_rows(), kKeySortRadixMin);
  const std::vector<IndexKey> keys = AllKeys(AttributeSet::FromMask(0xf));
  ASSERT_EQ(keys.size(), 64u);
  std::vector<ViewIndex> indexes;
  for (const IndexKey& key : keys) {
    SCOPED_TRACE(key.ToString(schema.names()));
    indexes.emplace_back(view, key);
    ExpectEntriesInSortedOrder(view, indexes.back());
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
    ExpectEntriesInSortedOrder(view, index);
  }
}

TEST(ViewIndexTest, BuildsOnBothSortPathsGiveTheSortedEntryOrder) {
  // A build sorts fewer than kKeySortRadixMin entries with std::stable_sort
  // and more with the radix sort. Views of one row either side of that
  // bound, drawn from the 4,096 cells of a 64 x 64 cube in a shuffled
  // order, must give the same (key, row) order under every key.
  const CubeSchema schema({Dimension{"a", 64}, Dimension{"b", 64}});
  std::vector<uint32_t> cells(64 * 64);
  for (uint32_t i = 0; i < cells.size(); ++i) cells[i] = i;
  Pcg32 rng(7);
  for (size_t i = cells.size() - 1; i > 0; --i) {
    std::swap(cells[i], cells[rng.NextBounded(static_cast<uint32_t>(i + 1))]);
  }
  for (size_t n : {kKeySortRadixMin - 1, kKeySortRadixMin}) {
    SCOPED_TRACE(n);
    FactTable fact(schema);
    for (size_t i = 0; i < n; ++i) {
      fact.Append({cells[i] / 64, cells[i] % 64}, 1.0);
    }
    const MaterializedView view =
        MaterializedView::FromFactTable(fact, schema.AllAttributes());
    ASSERT_EQ(view.num_rows(), n);
    for (const IndexKey& key : AllKeys(schema.AllAttributes())) {
      SCOPED_TRACE(key.ToString(schema.names()));
      ExpectEntriesInSortedOrder(view, ViewIndex(view, key));
    }
  }
}

TEST(ViewIndexTest, RekeyPlacesNewKeysBetweenAndBeyondOldOnes) {
  // 150 groups with a = 0, 3, ..., 447, then an append of 100 groups with
  // a = 1, 7, ..., 595: new keys fall between old ones and past the
  // largest. b = (a's position) mod 4 repeats under partial keys.
  const CubeSchema schema({Dimension{"a", 600}, Dimension{"b", 4}});
  FactTable fact(schema);
  for (uint32_t i = 0; i < 150; ++i) fact.Append({3 * i, i % 4}, 1.0);
  MaterializedView view =
      MaterializedView::FromFactTable(fact, schema.AllAttributes());
  std::vector<ViewIndex> indexes;
  for (const IndexKey& key : AllKeys(schema.AllAttributes())) {
    indexes.emplace_back(view, key);
  }
  for (uint32_t i = 0; i < 100; ++i) fact.Append({6 * i + 1, i % 4}, 1.0);
  const MaterializedView::DeltaResult delta =
      view.ApplyDelta(fact, 150, fact.num_rows());
  ASSERT_EQ(delta.inserted_rows.size(), 100u);
  ASSERT_EQ(view.num_rows(), 250u);
  for (ViewIndex& index : indexes) {
    SCOPED_TRACE(index.key().ToString(schema.names()));
    index.Rekey(view, delta.inserted_rows);
    ExpectEntriesInSortedOrder(view, index);
    EXPECT_EQ(StoredEntries(index),
              StoredEntries(ViewIndex(view, index.key())));
  }
  const auto by_a_it =
      std::find_if(indexes.begin(), indexes.end(), [](const ViewIndex& i) {
        return i.key().ToVector() == std::vector<int>{0};
      });
  ASSERT_NE(by_a_it, indexes.end());
  const ViewIndex& by_a = *by_a_it;
  const auto rows_with_a = [&](uint32_t lo, uint32_t hi) {
    return RowsWithValueIn(view, 0, lo, hi);
  };
  ASSERT_EQ(rows_with_a(1, 1).size(), 1u);
  EXPECT_EQ(Probe(by_a, {1}), rows_with_a(1, 1));
  EXPECT_EQ(Probe(by_a, {3}), rows_with_a(3, 3));
  EXPECT_TRUE(Probe(by_a, {2}).empty());
  // Past the old largest key 447 lie only new groups: 6i + 1 for i >= 75.
  ASSERT_EQ(rows_with_a(448, 599).size(), 25u);
  EXPECT_EQ(ProbeRange(by_a, {}, 448, 599), rows_with_a(448, 599));
  EXPECT_EQ(Probe(by_a, {}).size(), 250u);
}

// ---------------------------------------------------------------------------
// The probe oracle: on random views, every key and random prefixes, a probe
// visits exactly the rows a filtered full scan finds, in (key, row) order.
// Parameters: the view's width (1-4 of the cube's 4 attributes) and a seed.
// ---------------------------------------------------------------------------

class ViewIndexOracleTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

// Rows of `view` whose key positions before `t` equal `points` and whose
// position `t` (if t < key size) lies in [lo, hi], in (key, row) order.
std::vector<uint32_t> FilteredScan(const MaterializedView& view,
                                   const std::vector<int>& key,
                                   const std::vector<uint32_t>& points,
                                   bool ranged, uint32_t lo, uint32_t hi) {
  const KeyCodec codec(view.schema(), key);
  std::vector<Entry> hits;
  for (size_t r = 0; r < view.num_rows(); ++r) {
    bool match = true;
    for (size_t i = 0; i < points.size() && match; ++i) {
      match = view.dim(r, key[i]) == points[i];
    }
    if (match && ranged) {
      const uint32_t v = view.dim(r, key[points.size()]);
      match = lo <= v && v <= hi;
    }
    if (match) {
      hits.emplace_back(view.KeyAt(codec, r), static_cast<uint32_t>(r));
    }
  }
  std::sort(hits.begin(), hits.end());
  std::vector<uint32_t> rows;
  for (const Entry& hit : hits) rows.push_back(hit.second);
  return rows;
}

TEST_P(ViewIndexOracleTest, ProbesVisitTheFilteredScanInKeyRowOrder) {
  const auto [width, seed] = GetParam();
  Pcg32 rng(seed);
  std::vector<Dimension> dims;
  for (int a = 0; a < 4; ++a) {
    dims.push_back(Dimension{std::string(1, static_cast<char>('a' + a)),
                             2 + rng.NextBounded(14)});
  }
  const CubeSchema schema(dims);
  const FactTable fact = GenerateZipfFacts(
      schema, 300 + rng.NextBounded(3000), /*skew=*/0.8, seed);
  std::vector<AttributeSet> of_width;
  for (AttributeSet subset : schema.AllAttributes().Subsets()) {
    if (subset.size() == width) of_width.push_back(subset);
  }
  const AttributeSet attrs = of_width[rng.NextBounded(
      static_cast<uint32_t>(of_width.size()))];
  const MaterializedView view = MaterializedView::FromFactTable(fact, attrs);
  // A random value of key position `i`: a stored one, or any value of the
  // dimension (possibly absent from the view).
  const auto draw = [&](int attr) {
    if (rng.NextBounded(2) == 0) {
      return view.dim(rng.NextBounded(static_cast<uint32_t>(view.num_rows())),
                      attr);
    }
    return rng.NextBounded(
        static_cast<uint32_t>(schema.dimension(attr).cardinality));
  };
  for (const IndexKey& index_key : AllKeys(attrs)) {
    const std::vector<int> key = index_key.ToVector();
    const ViewIndex index(view, index_key);
    SCOPED_TRACE(index_key.ToString(schema.names()));
    ExpectEntriesInSortedOrder(view, index);
    for (int draw_no = 0; draw_no < 8; ++draw_no) {
      const size_t t = rng.NextBounded(static_cast<uint32_t>(key.size() + 1));
      std::vector<uint32_t> points;
      for (size_t i = 0; i < t; ++i) points.push_back(draw(key[i]));
      EXPECT_EQ(Probe(index, points),
                FilteredScan(view, key, points, false, 0, 0));
      if (t == key.size()) continue;
      uint32_t lo = draw(key[t]);
      uint32_t hi = draw(key[t]);
      if (rng.NextBounded(4) != 0 && lo > hi) std::swap(lo, hi);
      EXPECT_EQ(ProbeRange(index, points, lo, hi),
                FilteredScan(view, key, points, true, lo, hi));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    WidthsAndSeeds, ViewIndexOracleTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(uint64_t{1}, uint64_t{2},
                                         uint64_t{3})));

TEST(ViewIndexDeathTest, KeyMustUseViewAttributes) {
  FactTable fact = GenerateUniformFacts(SmallSchema(), 50, /*seed=*/2);
  MaterializedView view =
      MaterializedView::FromFactTable(fact, AttributeSet::Of({0}));
  EXPECT_DEATH(ViewIndex(view, IndexKey({1})), "CHECK");
  EXPECT_DEATH(ViewIndex(view, IndexKey()), "CHECK");
}

}  // namespace
}  // namespace olapidx
