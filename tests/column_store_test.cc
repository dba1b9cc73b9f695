#include "engine/column_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/fact_generator.h"
#include "engine/catalog.h"
#include "engine/executor.h"
#include "engine/key_codec.h"

namespace olapidx {
namespace {

bool BitEq(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool StatesBitEq(const AggregateState& a, const AggregateState& b) {
  return BitEq(a.sum, b.sum) && a.count == b.count && BitEq(a.min, b.min) &&
         BitEq(a.max, b.max);
}

// ---------------------------------------------------------------------------
// RLE round-trip property: random columns, sorted and unsorted.
// ---------------------------------------------------------------------------

TEST(RleTest, RoundTripsRandomColumns) {
  Pcg32 rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    size_t len = rng.NextBounded(500);
    uint32_t domain = 1 + rng.NextBounded(20);
    std::vector<uint32_t> column(len);
    for (auto& v : column) v = rng.NextBounded(domain);
    if (trial % 2 == 0) std::sort(column.begin(), column.end());

    RleColumn rle = RleEncode(column);
    EXPECT_EQ(RleDecode(rle), column);
    EXPECT_EQ(rle.num_rows, column.size());
    EXPECT_LE(rle.num_runs(), column.size());
    if (trial % 2 == 0 && !column.empty()) {
      // Sorted input: one run per distinct value.
      EXPECT_LE(rle.num_runs(), static_cast<size_t>(domain));
    }
  }
}

TEST(RleTest, EdgeCases) {
  EXPECT_TRUE(RleDecode(RleEncode({})).empty());
  EXPECT_EQ(RleDecode(RleEncode({5})), std::vector<uint32_t>{5});
  std::vector<uint32_t> constant(1000, 9);
  RleColumn rle = RleEncode(constant);
  EXPECT_EQ(rle.num_runs(), 1u);
  EXPECT_EQ(RleDecode(rle), constant);
  std::vector<uint32_t> alternating;
  for (uint32_t i = 0; i < 100; ++i) alternating.push_back(i % 2);
  EXPECT_EQ(RleDecode(RleEncode(alternating)), alternating);
}

// ---------------------------------------------------------------------------
// Store vs view content equivalence.
// ---------------------------------------------------------------------------

CubeSchema TestSchema() {
  return CubeSchema(
      {Dimension{"a", 12}, Dimension{"b", 7}, Dimension{"c", 4},
       Dimension{"d", 9}});
}

// Collects the store's (key → state) content as a sorted map, so row-order
// differences between representations cancel out.
std::map<std::vector<uint32_t>, AggregateState> StoreContent(
    const ColumnStore& store) {
  std::vector<int> attrs = store.attrs().ToVector();
  std::map<std::vector<uint32_t>, AggregateState> content;
  store.Scan([&](size_t r, const uint32_t* dims, const AggregateState& st) {
    (void)r;
    std::vector<uint32_t> key;
    for (int a : attrs) key.push_back(dims[static_cast<size_t>(a)]);
    EXPECT_TRUE(content.emplace(std::move(key), st).second);
  });
  return content;
}

std::map<std::vector<uint32_t>, AggregateState> ViewContent(
    const MaterializedView& view) {
  std::map<std::vector<uint32_t>, AggregateState> content;
  for (size_t r = 0; r < view.num_rows(); ++r) {
    content.emplace(view.RowKey(r), view.aggregate(r));
  }
  return content;
}

TEST(ColumnStoreTest, ReconstructsViewContentBitExactly) {
  FactTable fact = GenerateUniformFacts(TestSchema(), 3000, /*seed=*/11);
  for (AttributeSet attrs :
       {AttributeSet::Of({0, 1}), AttributeSet::Of({0, 1, 2, 3}),
        AttributeSet::Of({2}), AttributeSet::Of({1, 3})}) {
    MaterializedView view = MaterializedView::FromFactTable(fact, attrs);
    ColumnStore store = ColumnStore::FromView(view);
    ASSERT_EQ(store.num_rows(), view.num_rows());
    auto expected = ViewContent(view);
    auto actual = StoreContent(store);
    ASSERT_EQ(actual.size(), expected.size());
    auto it = expected.begin();
    for (const auto& [key, state] : actual) {
      EXPECT_EQ(key, it->first);
      // Aggregate reconstruction is bit-exact even for fractional
      // measures: singletons round-trip through one double, full
      // states are stored verbatim.
      EXPECT_TRUE(StatesBitEq(state, it->second));
      ++it;
    }
  }
}

TEST(ColumnStoreTest, RandomAccessMatchesScan) {
  FactTable fact = GenerateZipfFacts(TestSchema(), 2000, 1.1, /*seed=*/3);
  MaterializedView view =
      MaterializedView::FromFactTable(fact, AttributeSet::Of({0, 1, 3}));
  ColumnStore store = ColumnStore::FromView(view);
  std::vector<int> attrs = store.attrs().ToVector();
  store.Scan([&](size_t r, const uint32_t* dims, const AggregateState& st) {
    for (int a : attrs) {
      EXPECT_EQ(store.dim(r, a), dims[static_cast<size_t>(a)]);
    }
    EXPECT_TRUE(StatesBitEq(store.aggregate(r), st));
  });
}

// ---------------------------------------------------------------------------
// Row order: storage row r is view row r, and both are in key order,
// pinned against a column-by-column comparator sort.
// ---------------------------------------------------------------------------

// Every store row, by random access and by a full scan, decodes to the
// view row of the same index: dimensions and states bit-exact.
void ExpectStoreRowsAreViewRows(const ColumnStore& store,
                                const MaterializedView& view) {
  ASSERT_EQ(store.num_rows(), view.num_rows());
  const std::vector<int> attrs = view.attrs().ToVector();
  for (size_t r = 0; r < view.num_rows(); ++r) {
    for (int a : attrs) ASSERT_EQ(store.dim(r, a), view.dim(r, a)) << r;
    ASSERT_TRUE(StatesBitEq(store.aggregate(r), view.aggregate(r))) << r;
  }
  size_t next = 0;
  store.Scan([&](size_t r, const uint32_t* dims, const AggregateState& st) {
    ASSERT_EQ(r, next++);
    for (int a : attrs) {
      ASSERT_EQ(dims[static_cast<size_t>(a)], view.dim(r, a)) << r;
    }
    ASSERT_TRUE(StatesBitEq(st, view.aggregate(r))) << r;
  });
  EXPECT_EQ(next, view.num_rows());
}

// The view row ids in key order, computed with a comparator over the
// global codes column by column in ascending attribute order (the packed
// uint64 key the view sorts on must agree with it).
std::vector<uint32_t> ComparatorRowOrder(const MaterializedView& view) {
  const std::vector<int> attrs = view.attrs().ToVector();
  std::vector<uint32_t> order(view.num_rows());
  std::iota(order.begin(), order.end(), uint32_t{0});
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    for (int attr : attrs) {
      if (view.dim(a, attr) != view.dim(b, attr)) {
        return view.dim(a, attr) < view.dim(b, attr);
      }
    }
    return false;
  });
  return order;
}

// The view row ids in the order the store holds them, matched by key.
std::vector<uint32_t> StoreRowOrder(const ColumnStore& store,
                                    const MaterializedView& view) {
  const std::vector<int> attrs = view.attrs().ToVector();
  std::map<std::vector<uint32_t>, uint32_t> row_of;
  for (size_t r = 0; r < view.num_rows(); ++r) {
    row_of.emplace(view.RowKey(r), static_cast<uint32_t>(r));
  }
  std::vector<uint32_t> order;
  store.Scan([&](size_t r, const uint32_t* dims, const AggregateState& st) {
    (void)r;
    (void)st;
    std::vector<uint32_t> key;
    for (int a : attrs) key.push_back(dims[static_cast<size_t>(a)]);
    order.push_back(row_of.at(key));
  });
  return order;
}

// Every view of a 4-dim schema, uniform and skewed.
TEST(ColumnStoreTest, RowOrderMatchesComparatorSort) {
  FactTable uniform = GenerateUniformFacts(TestSchema(), 3000, /*seed=*/41);
  FactTable zipf = GenerateZipfFacts(TestSchema(), 3000, 1.1, /*seed=*/43);
  for (const FactTable* fact : {&uniform, &zipf}) {
    for (uint32_t mask = 1; mask < 16; ++mask) {
      SCOPED_TRACE(::testing::Message() << "mask " << mask);
      const MaterializedView view =
          MaterializedView::FromFactTable(*fact, AttributeSet::FromMask(mask));
      const ColumnStore store = ColumnStore::FromView(view);
      ExpectStoreRowsAreViewRows(store, view);
      EXPECT_EQ(StoreRowOrder(store, view), ComparatorRowOrder(view));
    }
  }
}

// Eight 256-value attributes: the key takes exactly 64 bits, so the
// packed sort key uses its top bit.
TEST(ColumnStoreTest, RowOrderMatchesComparatorSortAtSixtyFourBits) {
  std::vector<Dimension> dims;
  for (int i = 0; i < 8; ++i) {
    dims.push_back(Dimension{"x" + std::to_string(i), 256});
  }
  const CubeSchema schema(dims);
  const AttributeSet attrs = AttributeSet::FromMask(0xff);
  ASSERT_EQ(KeyCodec(schema, attrs.ToVector()).total_bits(), 64);
  FactTable wide = GenerateUniformFacts(schema, 600, /*seed=*/47);
  const MaterializedView view = MaterializedView::FromFactTable(wide, attrs);
  const ColumnStore store = ColumnStore::FromView(view);
  ExpectStoreRowsAreViewRows(store, view);
  EXPECT_EQ(StoreRowOrder(store, view), ComparatorRowOrder(view));
}

// A one-row group of a -0.0 measure sums to +0.0 (a fold from zero) while
// its min and max keep -0.0: the state is no singleton, since one double
// cannot reconstruct it.
TEST(ColumnStoreTest, NegativeZeroGroupReconstructsBitExactly) {
  FactTable fact(TestSchema());
  fact.Append({1, 2, 3, 4}, -0.0);
  fact.Append({2, 2, 3, 4}, 1.5);
  const MaterializedView view =
      MaterializedView::FromFactTable(fact, AttributeSet::Of({0, 1, 2, 3}));
  ASSERT_TRUE(BitEq(view.aggregate(0).sum, 0.0));
  ASSERT_TRUE(BitEq(view.aggregate(0).min, -0.0));
  const ColumnStore store = ColumnStore::FromView(view);
  ExpectStoreRowsAreViewRows(store, view);
  EXPECT_TRUE(BitEq(store.aggregate(0).min, -0.0));
  EXPECT_TRUE(BitEq(store.aggregate(0).max, -0.0));
}

// ---------------------------------------------------------------------------
// Selection-first scan vs. a full scan filtered afterwards.
// ---------------------------------------------------------------------------

// One row a scan visits: its storage row, the decoded attributes' codes
// (in ascending attribute order) and its state.
struct Visit {
  size_t row;
  std::vector<uint32_t> dims;
  AggregateState state;
};

// The oracle: every storage row in order, read by random access, kept if
// it satisfies every predicate.
std::vector<Visit> FilteredFullScan(
    const ColumnStore& store,
    const std::vector<ColumnStore::Predicate>& predicates,
    AttributeSet decode) {
  std::vector<Visit> visits;
  for (size_t r = 0; r < store.num_rows(); ++r) {
    bool match = true;
    for (const ColumnStore::Predicate& p : predicates) {
      if (store.dim(r, p.attr) != p.value) match = false;
    }
    if (!match) continue;
    Visit v{r, {}, store.aggregate(r)};
    for (int a : decode.ToVector()) v.dims.push_back(store.dim(r, a));
    visits.push_back(std::move(v));
  }
  return visits;
}

std::vector<Visit> SelectionFirstScan(
    const ColumnStore& store,
    const std::vector<ColumnStore::Predicate>& predicates,
    AttributeSet decode) {
  std::vector<Visit> visits;
  store.Scan(predicates, decode,
             [&](size_t r, const uint32_t* dims, const AggregateState& st) {
               Visit v{r, {}, st};
               for (int a : decode.ToVector()) {
                 v.dims.push_back(dims[static_cast<size_t>(a)]);
               }
               visits.push_back(std::move(v));
             });
  return visits;
}

void ExpectSameVisits(const std::vector<Visit>& actual,
                      const std::vector<Visit>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    ASSERT_EQ(actual[i].row, expected[i].row) << "visit " << i;
    ASSERT_EQ(actual[i].dims, expected[i].dims) << "visit " << i;
    ASSERT_TRUE(StatesBitEq(actual[i].state, expected[i].state))
        << "visit " << i;
  }
}

// Skewed rows whose dimension values never reach the last code of their
// domain, so every column's dictionary lacks an in-domain value.
FactTable FactsMissingLastCodes(const CubeSchema& schema, size_t rows,
                                uint64_t seed) {
  FactTable fact(schema);
  Pcg32 rng(seed);
  std::vector<uint32_t> dims(static_cast<size_t>(schema.num_dimensions()));
  for (size_t r = 0; r < rows; ++r) {
    for (int a = 0; a < schema.num_dimensions(); ++a) {
      const uint32_t domain =
          static_cast<uint32_t>(schema.dimension(a).cardinality) - 1;
      // Squaring a uniform draw skews values toward 0: long runs up front.
      const uint32_t u = rng.NextBounded(domain * domain);
      uint32_t v = 0;
      while ((v + 1) * (v + 1) <= u) ++v;
      dims[static_cast<size_t>(a)] = v;
    }
    fact.Append(dims, static_cast<double>(rng.NextBounded(1000)) / 7.0);
  }
  return fact;
}

TEST(ColumnStoreTest, SelectionFirstScanMatchesFilteredFullScan) {
  const CubeSchema schema = TestSchema();
  const FactTable fact = FactsMissingLastCodes(schema, 3000, /*seed=*/61);
  Pcg32 rng(67);
  bool saw_rle_predicate = false;
  bool saw_packed_predicate = false;
  bool saw_absent_value = false;
  for (uint32_t mask : {0x1u, 0x3u, 0x7u, 0xbu, 0xfu}) {
    const AttributeSet attrs = AttributeSet::FromMask(mask);
    const MaterializedView view = MaterializedView::FromFactTable(fact, attrs);
    const ColumnStore store = ColumnStore::FromView(view);
    // Every predicate set (none, some, all columns), each with values of a
    // random row, once more with one value absent from its column, and
    // every decode set.
    for (AttributeSet selection : attrs.Subsets()) {
      for (int variant = 0; variant < 3; ++variant) {
        const size_t row =
            rng.NextBounded(static_cast<uint32_t>(store.num_rows()));
        std::vector<ColumnStore::Predicate> predicates;
        for (int a : selection.ToVector()) {
          predicates.push_back({a, store.dim(row, a)});
          (store.IsRunLength(a) ? saw_rle_predicate : saw_packed_predicate) =
              true;
        }
        if (variant == 2 && !predicates.empty()) {
          predicates.back().value = static_cast<uint32_t>(
              schema.dimension(predicates.back().attr).cardinality - 1);
          saw_absent_value = true;
        }
        for (AttributeSet decode : attrs.Subsets()) {
          SCOPED_TRACE(::testing::Message()
                       << "view " << mask << " selection " << selection.mask()
                       << " variant " << variant << " decode "
                       << decode.mask());
          const std::vector<Visit> expected =
              FilteredFullScan(store, predicates, decode);
          ExpectSameVisits(SelectionFirstScan(store, predicates, decode),
                           expected);
          if (variant == 2 && !predicates.empty()) {
            EXPECT_TRUE(expected.empty());
          }
          if (variant < 2 && selection == attrs) {
            EXPECT_EQ(expected.size(), 1u);  // the full key picks one row
          }
        }
      }
    }
  }
  EXPECT_TRUE(saw_rle_predicate);
  EXPECT_TRUE(saw_packed_predicate);
  EXPECT_TRUE(saw_absent_value);
}

TEST(ColumnStoreTest, SelectionFirstScanClipsRunsToRanges) {
  // The store keeps the view's (a, b, c, d) order, and b's run of 3 spans
  // the a = 0 | 1 | 2 boundaries: a predicate on b must only keep the part
  // of that run inside a's matching range.
  const CubeSchema schema = TestSchema();
  FactTable fact(schema);
  const std::vector<std::pair<uint32_t, uint32_t>> ab = {
      {0, 0}, {0, 3}, {1, 3}, {2, 3}, {2, 5}};
  for (const auto& [a, b] : ab) {
    for (uint32_t c = 0; c < 4; ++c) {
      for (uint32_t d = 0; d < 9; ++d) {
        fact.Append({a, b, c, d}, 0.5 + a + b + c + d);
      }
    }
  }
  const MaterializedView view =
      MaterializedView::FromFactTable(fact, AttributeSet::Of({0, 1, 2, 3}));
  const ColumnStore store = ColumnStore::FromView(view);
  ASSERT_TRUE(store.IsRunLength(0));
  ASSERT_TRUE(store.IsRunLength(1));
  ASSERT_EQ(store.NumRuns(1), 3u);
  for (AttributeSet selection : store.attrs().Subsets()) {
    for (size_t row = 0; row < store.num_rows(); row += 7) {
      std::vector<ColumnStore::Predicate> predicates;
      for (int a : selection.ToVector()) {
        predicates.push_back({a, store.dim(row, a)});
      }
      SCOPED_TRACE(::testing::Message()
                   << "selection " << selection.mask() << " row " << row);
      ExpectSameVisits(SelectionFirstScan(store, predicates, store.attrs()),
                       FilteredFullScan(store, predicates, store.attrs()));
    }
  }
}

TEST(ColumnStoreTest, SelectionFirstScanOfEmptyStore) {
  const FactTable fact(TestSchema());
  const MaterializedView view =
      MaterializedView::FromFactTable(fact, AttributeSet::Of({0, 1}));
  const ColumnStore store = ColumnStore::FromView(view);
  size_t visits = 0;
  store.Scan({{0, 0}}, store.attrs(),
             [&](size_t, const uint32_t*, const AggregateState&) {
               ++visits;
             });
  store.Scan([&](size_t, const uint32_t*, const AggregateState&) {
    ++visits;
  });
  EXPECT_EQ(visits, 0u);
}

// ---------------------------------------------------------------------------
// Executor over the compressed store.
// ---------------------------------------------------------------------------

// Integer measures in [1, 100].
FactTable IntegerMeasureFacts(const CubeSchema& schema, size_t rows,
                              uint64_t seed) {
  FactTable fact(schema);
  fact.Reserve(rows);
  Pcg32 rng(seed);
  std::vector<uint32_t> dims(static_cast<size_t>(schema.num_dimensions()));
  for (size_t r = 0; r < rows; ++r) {
    for (int a = 0; a < schema.num_dimensions(); ++a) {
      dims[static_cast<size_t>(a)] = rng.NextBounded(static_cast<uint32_t>(
          schema.dimensions()[static_cast<size_t>(a)].cardinality));
    }
    fact.Append(dims, 1.0 + rng.NextBounded(100));
  }
  return fact;
}

void ExpectResultsBitEqual(const GroupedResult& a, const GroupedResult& b) {
  ASSERT_EQ(a.group_attrs, b.group_attrs);
  ASSERT_EQ(a.keys, b.keys);
  ASSERT_EQ(a.sums.size(), b.sums.size());
  ASSERT_EQ(a.aggregates.size(), b.aggregates.size());
  for (size_t i = 0; i < a.sums.size(); ++i) {
    EXPECT_TRUE(BitEq(a.sums[i], b.sums[i])) << i;
    EXPECT_TRUE(StatesBitEq(a.aggregates[i], b.aggregates[i])) << i;
  }
}

// The store keeps the view's row order, so a columnar scan folds every
// group's rows in the row store's order: fractional sums agree bit for
// bit, for every group-by and selection of the view.
TEST(ColumnStoreTest, ExecutorColumnarScanBitIdenticalToRowScan) {
  FactTable fact = GenerateZipfFacts(TestSchema(), 5000, 1.1, /*seed=*/17);
  const AttributeSet view = AttributeSet::Of({0, 1, 2, 3});
  Catalog catalog(&fact);
  catalog.MaterializeView(view);
  Catalog compressed(&fact);
  compressed.MaterializeView(view);
  ASSERT_EQ(compressed.CompressAllViews(), 1u);

  Executor row_exec(&catalog);
  Executor col_exec(&compressed);
  Pcg32 rng(23);
  for (AttributeSet selection : view.Subsets()) {
    for (AttributeSet group : view.Minus(selection).Subsets()) {
      const SliceQuery q(group, selection);
      // Selection values of a random fact row: a non-empty slice.
      const size_t row =
          rng.NextBounded(static_cast<uint32_t>(fact.num_rows()));
      std::vector<uint32_t> sel;
      for (int a : selection.ToVector()) sel.push_back(fact.dim(row, a));
      SCOPED_TRACE(q.ToString(TestSchema().names()));
      ExecutionStats row_stats, col_stats;
      const GroupedResult a = row_exec.Execute(q, sel, &row_stats);
      const GroupedResult b = col_exec.Execute(q, sel, &col_stats);
      EXPECT_FALSE(row_stats.used_columnar);
      // Without a selection the executor reads the row store.
      EXPECT_EQ(col_stats.used_columnar, !selection.empty());
      EXPECT_GT(a.num_rows(), 0u);
      ExpectResultsBitEqual(a, b);
    }
  }
}

TEST(ColumnStoreTest, CatalogRefreshRebuildsStore) {
  CubeSchema schema = TestSchema();
  FactTable fact = IntegerMeasureFacts(schema, 500, /*seed=*/31);
  Catalog catalog(&fact);
  catalog.MaterializeView(AttributeSet::Of({0, 2}));
  ASSERT_TRUE(catalog.CompressView(AttributeSet::Of({0, 2})).ok());
  fact.Append({1, 2, 3, 4}, 5.0);
  fact.Append({1, 2, 3, 5}, 7.0);
  catalog.RefreshAfterAppend();
  const MaterializedView& view = catalog.view(AttributeSet::Of({0, 2}));
  const ColumnStore* store = catalog.column_store(AttributeSet::Of({0, 2}));
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->num_rows(), view.num_rows());
  auto expected = ViewContent(view);
  auto actual = StoreContent(*store);
  ASSERT_EQ(actual.size(), expected.size());
  auto it = expected.begin();
  for (const auto& [key, state] : actual) {
    EXPECT_EQ(key, it->first);
    EXPECT_TRUE(StatesBitEq(state, it->second));
    ++it;
  }
}

TEST(ColumnStoreTest, CompressUnmaterializedViewFails) {
  FactTable fact = IntegerMeasureFacts(TestSchema(), 100, /*seed=*/37);
  Catalog catalog(&fact);
  Status s = catalog.CompressView(AttributeSet::Of({0, 1}));
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// The acceptance pin: TPC-D views compress to ≤ 0.5x of row storage.
// ---------------------------------------------------------------------------

TEST(ColumnStoreTest, TpcdViewsCompressBelowHalfOfRowStorage) {
  FactTable fact = GenerateTpcdScaledFacts(TpcdScaledConfig{});
  Catalog catalog(&fact);
  // All non-empty subcubes of (part, supplier, customer), the paper's
  // Figure 1 lattice.
  std::vector<AttributeSet> views;
  for (uint32_t mask = 1; mask < 8; ++mask) {
    views.push_back(AttributeSet::FromMask(mask));
    catalog.MaterializeView(views.back());
  }
  catalog.CompressAllViews();
  size_t row_bytes = 0;
  size_t compressed_bytes = 0;
  for (AttributeSet attrs : views) {
    row_bytes += ColumnStore::RowStoreBytes(catalog.view(attrs));
    compressed_bytes += catalog.column_store(attrs)->CompressedBytes();
  }
  EXPECT_LE(compressed_bytes * 2, row_bytes)
      << "compressed " << compressed_bytes << " vs row " << row_bytes;
}

}  // namespace
}  // namespace olapidx
