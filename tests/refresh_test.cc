// Incremental-maintenance tests: appending fact rows and refreshing the
// catalog must be equivalent to rebuilding from scratch, and the measured
// refresh work must scale with structure size — the physical justification
// for the update-aware selection extension's cost model.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "data/fact_generator.h"
#include "engine/executor.h"
#include "workload/workload.h"

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
// The bit-exact refresh oracle.
// ---------------------------------------------------------------------------

// A refreshed view is its pre-append self with each delta group's
// aggregate (the group's fact rows folded in row order) merged in once,
// and groups new to the view inserted in key order. Sums compare by bits.
void ExpectViewIsPreAppendPlusDelta(const MaterializedView& before,
                                    const MaterializedView& after,
                                    const FactTable& fact,
                                    size_t begin_row) {
  const std::vector<int> attrs = before.attrs().ToVector();
  std::map<std::vector<uint32_t>, AggregateState> delta;
  for (size_t r = begin_row; r < fact.num_rows(); ++r) {
    std::vector<uint32_t> key;
    for (int a : attrs) key.push_back(fact.dim(r, a));
    delta[key].Merge(AggregateState::OfMeasure(fact.measure(r)));
  }
  std::map<std::vector<uint32_t>, AggregateState> expected;
  for (size_t r = 0; r < before.num_rows(); ++r) {
    expected.emplace(before.RowKey(r), before.aggregate(r));
  }
  for (const auto& [key, state] : delta) {
    auto [it, inserted] = expected.emplace(key, state);
    if (!inserted) it->second.Merge(state);
  }
  ASSERT_EQ(after.num_rows(), expected.size());
  size_t row = 0;
  for (const auto& [key, state] : expected) {
    ASSERT_EQ(after.RowKey(row), key) << "row " << row;
    EXPECT_TRUE(StatesBitEq(after.aggregate(row), state)) << "row " << row;
    ++row;
  }
}

// The index's (key, row) entries as stored.
std::vector<std::pair<uint64_t, uint32_t>> Entries(const ViewIndex& index) {
  std::vector<std::pair<uint64_t, uint32_t>> entries;
  for (size_t i = 0; i < index.num_entries(); ++i) {
    entries.emplace_back(index.keys()[i], index.rows()[i]);
  }
  return entries;
}

// Every row of `view` under `key`, sorted by std::sort of (key, row).
std::vector<std::pair<uint64_t, uint32_t>> SortedEntries(
    const MaterializedView& view, const IndexKey& key) {
  const KeyCodec codec(view.schema(), key.ToVector());
  std::vector<std::pair<uint64_t, uint32_t>> entries;
  for (size_t r = 0; r < view.num_rows(); ++r) {
    entries.emplace_back(view.KeyAt(codec, r), static_cast<uint32_t>(r));
  }
  std::sort(entries.begin(), entries.end());
  return entries;
}

// A re-keyed index holds the entries a from-scratch build over the
// refreshed view gives: every view row once, in (key, row) order.
void ExpectIndexIsRebuild(const ViewIndex& index,
                          const MaterializedView& view) {
  ASSERT_EQ(index.keys().size(), index.rows().size());
  const ViewIndex rebuilt(view, index.key());
  EXPECT_EQ(Entries(index), Entries(rebuilt));
  EXPECT_EQ(Entries(index), SortedEntries(view, index.key()));
}

// A refreshed column store is the encoding of the refreshed view.
void ExpectStoreIsEncodingOf(const ColumnStore& store,
                             const MaterializedView& view) {
  const ColumnStore fresh = ColumnStore::FromView(view);
  ASSERT_EQ(store.num_rows(), fresh.num_rows());
  EXPECT_EQ(store.CompressedBytes(), fresh.CompressedBytes());
  for (int a : view.attrs().ToVector()) {
    EXPECT_EQ(store.NumRuns(a), fresh.NumRuns(a));
    EXPECT_EQ(store.ColumnBytes(a), fresh.ColumnBytes(a));
    for (size_t r = 0; r < store.num_rows(); ++r) {
      ASSERT_EQ(store.dim(r, a), fresh.dim(r, a)) << "row " << r;
    }
  }
  for (size_t r = 0; r < store.num_rows(); ++r) {
    ASSERT_TRUE(StatesBitEq(store.aggregate(r), fresh.aggregate(r)))
        << "row " << r;
  }
}

// Refreshes `catalog`, whose views all hold fact rows [0, begin_row), and
// checks every view, index and column store against the oracle.
Catalog::RefreshStats RefreshAndCheck(Catalog& catalog,
                                      const FactTable& fact,
                                      size_t begin_row) {
  std::vector<MaterializedView> before;
  for (AttributeSet attrs : catalog.materialized_views()) {
    before.push_back(catalog.view(attrs));
  }
  const Catalog::RefreshStats stats = catalog.RefreshAfterAppend();
  for (size_t v = 0; v < before.size(); ++v) {
    const AttributeSet attrs = catalog.materialized_views()[v];
    SCOPED_TRACE(attrs.ToString(fact.schema().names()));
    const MaterializedView& view = catalog.view(attrs);
    ExpectViewIsPreAppendPlusDelta(before[v], view, fact, begin_row);
    for (const ViewIndex& index : catalog.indexes(attrs)) {
      SCOPED_TRACE(index.key().ToString(fact.schema().names()));
      ExpectIndexIsRebuild(index, view);
    }
    if (const ColumnStore* store = catalog.column_store(attrs)) {
      ExpectStoreIsEncodingOf(*store, view);
    }
  }
  return stats;
}

CubeSchema SmallSchema() {
  return CubeSchema(
      {Dimension{"a", 12}, Dimension{"b", 8}, Dimension{"c", 5}});
}

void AppendRandomRows(FactTable& fact, size_t rows, uint64_t seed) {
  Pcg32 rng(seed);
  const CubeSchema& schema = fact.schema();
  std::vector<uint32_t> dims(
      static_cast<size_t>(schema.num_dimensions()));
  for (size_t r = 0; r < rows; ++r) {
    for (int a = 0; a < schema.num_dimensions(); ++a) {
      dims[static_cast<size_t>(a)] = rng.NextBounded(
          static_cast<uint32_t>(schema.dimension(a).cardinality));
    }
    fact.Append(dims, 1.0 + rng.NextDouble() * 9.0);
  }
}

TEST(RefreshTest, DeltaEqualsRebuild) {
  FactTable fact = GenerateUniformFacts(SmallSchema(), 400, /*seed=*/3);
  Catalog catalog(&fact);
  catalog.MaterializeView(AttributeSet::Of({0, 1, 2}));
  catalog.MaterializeView(AttributeSet::Of({0, 1}));
  catalog.MaterializeView(AttributeSet::Of({2}));
  catalog.BuildIndex(AttributeSet::Of({0, 1}), IndexKey({1, 0}));

  AppendRandomRows(fact, 300, /*seed=*/99);
  Catalog::RefreshStats stats = catalog.RefreshAfterAppend();
  EXPECT_EQ(stats.views_refreshed, 3u);
  EXPECT_EQ(stats.delta_rows_scanned, 3u * 300u);
  EXPECT_EQ(stats.indexes_rebuilt, 1u);
  EXPECT_GT(stats.groups_touched, 0u);

  // Every refreshed view must equal a from-scratch rebuild.
  for (AttributeSet attrs : catalog.materialized_views()) {
    MaterializedView rebuilt =
        MaterializedView::FromFactTable(fact, attrs);
    const MaterializedView& refreshed = catalog.view(attrs);
    ASSERT_EQ(refreshed.num_rows(), rebuilt.num_rows())
        << attrs.ToString(fact.schema().names());
    for (size_t r = 0; r < rebuilt.num_rows(); ++r) {
      EXPECT_EQ(refreshed.RowKey(r), rebuilt.RowKey(r));
      EXPECT_NEAR(refreshed.aggregate(r).sum, rebuilt.aggregate(r).sum,
                  1e-9);
      EXPECT_EQ(refreshed.aggregate(r).count, rebuilt.aggregate(r).count);
      EXPECT_EQ(refreshed.aggregate(r).min, rebuilt.aggregate(r).min);
      EXPECT_EQ(refreshed.aggregate(r).max, rebuilt.aggregate(r).max);
    }
  }
}

TEST(RefreshTest, ExecutorCorrectAfterRefresh) {
  FactTable fact = GenerateUniformFacts(SmallSchema(), 500, /*seed=*/5);
  Catalog catalog(&fact);
  catalog.MaterializeView(AttributeSet::Of({0, 1, 2}));
  catalog.MaterializeView(AttributeSet::Of({0, 1}));
  catalog.BuildIndex(AttributeSet::Of({0, 1}), IndexKey({1, 0}));
  catalog.BuildIndex(AttributeSet::Of({0, 1, 2}), IndexKey({2, 1, 0}));

  AppendRandomRows(fact, 400, /*seed=*/77);
  catalog.RefreshAfterAppend();

  Executor executor(&catalog);
  CubeLattice lattice(SmallSchema());
  Workload all = AllSliceQueries(lattice);
  Pcg32 rng(9);
  for (const WeightedQuery& wq : all.queries()) {
    std::vector<uint32_t> values;
    for (int a : wq.query.selection().ToVector()) {
      values.push_back(rng.NextBounded(static_cast<uint32_t>(
          fact.schema().dimension(a).cardinality)));
    }
    ExecutionStats stats;
    GroupedResult fast = executor.Execute(wq.query, values, &stats);
    GroupedResult naive = executor.ExecuteNaive(wq.query, values);
    ASSERT_EQ(fast.num_rows(), naive.num_rows())
        << wq.query.ToString(fact.schema().names());
    for (size_t r = 0; r < fast.num_rows(); ++r) {
      EXPECT_EQ(fast.keys[r], naive.keys[r]);
      EXPECT_NEAR(fast.sums[r], naive.sums[r], 1e-6);
    }
  }
}

TEST(RefreshTest, RefreshIsIdempotent) {
  FactTable fact = GenerateUniformFacts(SmallSchema(), 200, /*seed=*/8);
  Catalog catalog(&fact);
  catalog.MaterializeView(AttributeSet::Of({0}));
  AppendRandomRows(fact, 100, /*seed=*/1);
  Catalog::RefreshStats first = catalog.RefreshAfterAppend();
  EXPECT_EQ(first.views_refreshed, 1u);
  Catalog::RefreshStats second = catalog.RefreshAfterAppend();
  EXPECT_EQ(second.views_refreshed, 0u);
  EXPECT_EQ(second.groups_touched, 0u);
}

TEST(RefreshTest, ViewsMaterializedAfterAppendNeedNoRefresh) {
  FactTable fact = GenerateUniformFacts(SmallSchema(), 200, /*seed=*/11);
  Catalog catalog(&fact);
  AppendRandomRows(fact, 100, /*seed=*/2);
  catalog.MaterializeView(AttributeSet::Of({1}));  // sees all 300 rows
  Catalog::RefreshStats stats = catalog.RefreshAfterAppend();
  EXPECT_EQ(stats.views_refreshed, 0u);
}

// Stress: random batch sizes across many refresh cycles must stay
// equivalent to a from-scratch rebuild (catches ordering and merge bugs
// in MaterializedView::ApplyDelta).
class RefreshStressTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RefreshStressTest, ManyRandomBatches) {
  uint64_t seed = GetParam();
  Pcg32 rng(seed);
  FactTable fact =
      GenerateUniformFacts(SmallSchema(), 50 + rng.NextBounded(200), seed);
  Catalog catalog(&fact);
  catalog.MaterializeView(AttributeSet::Of({0, 1, 2}));
  catalog.MaterializeView(AttributeSet::Of({0, 2}));
  catalog.MaterializeView(AttributeSet::Of({1}));
  catalog.BuildIndex(AttributeSet::Of({0, 2}), IndexKey({2, 0}));
  // Keys that are strict subsets of the view: duplicate index keys.
  catalog.BuildIndex(AttributeSet::Of({0, 1, 2}), IndexKey({1}));
  catalog.BuildIndex(AttributeSet::Of({0, 1, 2}), IndexKey({2, 0}));
  ASSERT_TRUE(catalog.CompressView(AttributeSet::Of({0, 1, 2})).ok());
  ASSERT_TRUE(catalog.CompressView(AttributeSet::Of({0, 2})).ok());

  for (int cycle = 0; cycle < 8; ++cycle) {
    const size_t begin_row = fact.num_rows();
    AppendRandomRows(fact, 1 + rng.NextBounded(150),
                     seed * 131 + static_cast<uint64_t>(cycle));
    RefreshAndCheck(catalog, fact, begin_row);
  }
  for (AttributeSet attrs : catalog.materialized_views()) {
    MaterializedView rebuilt =
        MaterializedView::FromFactTable(fact, attrs);
    const MaterializedView& refreshed = catalog.view(attrs);
    ASSERT_EQ(refreshed.num_rows(), rebuilt.num_rows());
    for (size_t r = 0; r < rebuilt.num_rows(); ++r) {
      ASSERT_EQ(refreshed.RowKey(r), rebuilt.RowKey(r));
      ASSERT_NEAR(refreshed.aggregate(r).sum, rebuilt.aggregate(r).sum,
                  1e-6);
      ASSERT_EQ(refreshed.aggregate(r).count, rebuilt.aggregate(r).count);
    }
  }
  // Indexes were re-keyed each cycle; validate the surviving one.
  const ViewIndex& index = catalog.indexes(AttributeSet::Of({0, 2}))[0];
  const MaterializedView& view = catalog.view(AttributeSet::Of({0, 2}));
  EXPECT_EQ(index.num_entries(), view.num_rows());
  EXPECT_EQ(Entries(index), SortedEntries(view, index.key()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RefreshStressTest,
                         ::testing::Range<uint64_t>(1, 11));

// Appends `rows` rows whose attribute 0 lies in [a_lo, a_hi); the other
// attributes and the measure are uniform as in AppendRandomRows.
void AppendRowsWithAIn(FactTable& fact, size_t rows, uint32_t a_lo,
                       uint32_t a_hi, uint64_t seed) {
  Pcg32 rng(seed);
  const CubeSchema& schema = fact.schema();
  std::vector<uint32_t> dims(static_cast<size_t>(schema.num_dimensions()));
  for (size_t r = 0; r < rows; ++r) {
    dims[0] = a_lo + rng.NextBounded(a_hi - a_lo);
    for (int a = 1; a < schema.num_dimensions(); ++a) {
      dims[static_cast<size_t>(a)] = rng.NextBounded(
          static_cast<uint32_t>(schema.dimension(a).cardinality));
    }
    fact.Append(dims, 1.0 + rng.NextDouble() * 9.0);
  }
}

// Each delta shape the merge distinguishes, against the bit-exact oracle:
// keys before the first row, after the last row, interleaved, already
// present (nothing inserted), and an empty delta.
TEST(RefreshTest, EveryDeltaShapeMatchesOracle) {
  FactTable fact(SmallSchema());
  AppendRowsWithAIn(fact, 300, 4, 8, /*seed=*/21);
  Catalog catalog(&fact);
  catalog.MaterializeView(AttributeSet::Of({0, 1, 2}));
  catalog.MaterializeView(AttributeSet::Of({0, 1}));
  catalog.MaterializeView(AttributeSet::Of({0}));
  catalog.BuildIndex(AttributeSet::Of({0, 1, 2}), IndexKey({0, 1, 2}));
  catalog.BuildIndex(AttributeSet::Of({0, 1, 2}), IndexKey({2}));
  catalog.BuildIndex(AttributeSet::Of({0, 1}), IndexKey({1, 0}));
  catalog.BuildIndex(AttributeSet::Of({0}), IndexKey({0}));
  ASSERT_EQ(catalog.CompressAllViews(), 3u);
  const AttributeSet a = AttributeSet::Of({0});

  {
    SCOPED_TRACE("before the first row");
    const size_t begin = fact.num_rows();
    AppendRowsWithAIn(fact, 40, 0, 2, /*seed=*/22);
    RefreshAndCheck(catalog, fact, begin);
    EXPECT_EQ(catalog.view(a).dim(0, 0), 0u);
  }
  {
    SCOPED_TRACE("after the last row");
    const size_t begin = fact.num_rows();
    AppendRowsWithAIn(fact, 40, 10, 12, /*seed=*/23);
    RefreshAndCheck(catalog, fact, begin);
    EXPECT_EQ(catalog.view(a).dim(catalog.view(a).num_rows() - 1, 0), 11u);
  }
  {
    SCOPED_TRACE("interleaved");
    const size_t begin = fact.num_rows();
    AppendRowsWithAIn(fact, 60, 0, 12, /*seed=*/24);
    RefreshAndCheck(catalog, fact, begin);
  }
  {
    SCOPED_TRACE("existing keys only");
    std::vector<size_t> rows_before;
    for (AttributeSet attrs : catalog.materialized_views()) {
      rows_before.push_back(catalog.view(attrs).num_rows());
    }
    const size_t begin = fact.num_rows();
    for (size_t r = 0; r < 50; ++r) {
      fact.Append(fact.RowDims(r * 7), 2.5);
    }
    const Catalog::RefreshStats stats = RefreshAndCheck(catalog, fact, begin);
    EXPECT_EQ(stats.views_refreshed, 3u);
    EXPECT_GT(stats.groups_touched, 0u);
    for (size_t v = 0; v < rows_before.size(); ++v) {
      EXPECT_EQ(catalog.view(catalog.materialized_views()[v]).num_rows(),
                rows_before[v]);
    }
  }
  {
    SCOPED_TRACE("empty delta");
    const Catalog::RefreshStats stats =
        RefreshAndCheck(catalog, fact, fact.num_rows());
    EXPECT_EQ(stats.views_refreshed, 0u);
    EXPECT_EQ(stats.groups_touched, 0u);
  }
}

TEST(RefreshTest, ApplyDeltaReportsInsertedRows) {
  FactTable fact(SmallSchema());
  AppendRowsWithAIn(fact, 200, 3, 9, /*seed=*/31);
  MaterializedView view =
      MaterializedView::FromFactTable(fact, AttributeSet::Of({0, 1}));
  const MaterializedView before = view;

  // An empty delta changes nothing.
  MaterializedView::DeltaResult none =
      view.ApplyDelta(fact, fact.num_rows(), fact.num_rows());
  EXPECT_EQ(none.groups_touched, 0u);
  EXPECT_TRUE(none.inserted_rows.empty());

  const size_t begin = fact.num_rows();
  AppendRowsWithAIn(fact, 80, 0, 12, /*seed=*/32);
  const MaterializedView::DeltaResult delta =
      view.ApplyDelta(fact, begin, fact.num_rows());
  ExpectViewIsPreAppendPlusDelta(before, view, fact, begin);
  ASSERT_EQ(view.num_rows(), before.num_rows() + delta.inserted_rows.size());
  EXPECT_TRUE(std::is_sorted(delta.inserted_rows.begin(),
                             delta.inserted_rows.end()));
  // Exactly the reported rows hold keys the view did not have before.
  std::map<std::vector<uint32_t>, size_t> old_keys;
  for (size_t r = 0; r < before.num_rows(); ++r) {
    old_keys.emplace(before.RowKey(r), r);
  }
  std::vector<uint32_t> new_rows;
  for (size_t r = 0; r < view.num_rows(); ++r) {
    if (old_keys.count(view.RowKey(r)) == 0) {
      new_rows.push_back(static_cast<uint32_t>(r));
    }
  }
  EXPECT_EQ(delta.inserted_rows, new_rows);
  EXPECT_GE(delta.groups_touched, new_rows.size());
}

// A view rolled up from a stale parent holds only the parent's rows; the
// next refresh must fold in the rows the parent was missing.
TEST(RefreshTest, RollUpFromStaleParentCatchesUp) {
  FactTable fact = GenerateUniformFacts(SmallSchema(), 400, /*seed=*/13);
  Catalog catalog(&fact);
  const AttributeSet ab = AttributeSet::Of({0, 1});
  const AttributeSet a = AttributeSet::Of({0});
  catalog.MaterializeView(ab);
  std::vector<uint32_t> dims = {3, 4, 2};
  for (int r = 0; r < 50; ++r) fact.Append(dims, 10.0);
  catalog.MaterializeView(a);  // rolls up from the stale {a,b}
  Catalog::RefreshStats stats = catalog.RefreshAfterAppend();
  EXPECT_EQ(stats.views_refreshed, 2u);
  EXPECT_EQ(stats.delta_rows_scanned, 100u);
  for (AttributeSet attrs : {ab, a}) {
    const MaterializedView rebuilt =
        MaterializedView::FromFactTable(fact, attrs);
    const MaterializedView& refreshed = catalog.view(attrs);
    ASSERT_EQ(refreshed.num_rows(), rebuilt.num_rows());
    for (size_t r = 0; r < rebuilt.num_rows(); ++r) {
      EXPECT_EQ(refreshed.RowKey(r), rebuilt.RowKey(r));
      EXPECT_EQ(refreshed.aggregate(r).count, rebuilt.aggregate(r).count);
      EXPECT_NEAR(refreshed.aggregate(r).sum, rebuilt.aggregate(r).sum,
                  1e-9);
    }
  }
}

TEST(RefreshTest, WorkScalesWithStructureSize) {
  // The refresh cost of a structure is Ω(delta) plus index-rebuild work
  // proportional to its size — the behaviour maintenance_per_row models.
  TpcdScaledConfig config;
  config.rows = 20'000;
  FactTable fact = GenerateTpcdScaledFacts(config);
  Catalog catalog(&fact);
  AttributeSet big = AttributeSet::Of({0, 1, 2});
  AttributeSet small = AttributeSet::Of({1});
  catalog.MaterializeView(big);
  catalog.MaterializeView(small);
  catalog.BuildIndex(big, IndexKey({0, 1, 2}));
  catalog.BuildIndex(small, IndexKey({1}));

  AppendRandomRows(fact, 2'000, /*seed=*/4);
  Catalog::RefreshStats stats = catalog.RefreshAfterAppend();
  // The big view's index rebuild dominates: entries rebuilt ≈ |psc| ≫ |s|.
  EXPECT_GT(stats.index_entries_rebuilt,
            0.9 * static_cast<double>(catalog.view(big).num_rows()));
  EXPECT_EQ(stats.indexes_rebuilt, 2u);
}

}  // namespace
}  // namespace olapidx
