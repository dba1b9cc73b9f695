// The sort path on a thread pool (SortGroupsOnPool) against the serial
// sort path, bit for bit, and Executor::Execute on the shared pool
// against ExecuteNaive.
//
// The kernel runs on pools of 1, 2 and 8 threads over a dim-5 table of
// more than kPooledSortMinRows rows: raw scans of the fact table and scans
// of the base view's row store, with and without a selection, for every
// group-by. Measures are fractional, so a fold in another order would
// change the sums' last bits, and one is -0.0, which a fold from zero sums
// to +0.0 while min and max keep it. Keys, sums and every AggregateState
// field are compared with memcmp against a GroupAccumulator on the sort
// path fed the same rows in row order.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "engine/catalog.h"
#include "engine/executor.h"
#include "engine/group_accumulator.h"
#include "engine/materialized_view.h"

namespace olapidx {
namespace {

CubeSchema Schema5() {
  return CubeSchema({Dimension{"a", 40}, Dimension{"b", 30},
                     Dimension{"c", 24}, Dimension{"d", 20},
                     Dimension{"e", 16}});
}

// Enough rows that the skewed base view keeps more than the pooled
// minimum, and not a multiple of any pool size.
constexpr size_t kRows = kPooledSortMinRows + kPooledSortMinRows / 4 + 3001;
constexpr size_t kNegativeZeroRow = 4321;

// One value in four is 0, so narrow group-bys fold long runs, a key's top
// bits pile into one bucket, and wide group-bys still repeat keys.
FactTable SkewedFacts(const CubeSchema& schema, Pcg32& rng) {
  FactTable fact(schema);
  std::vector<uint32_t> dims(static_cast<size_t>(schema.num_dimensions()));
  for (size_t r = 0; r < kRows; ++r) {
    for (int a = 0; a < schema.num_dimensions(); ++a) {
      dims[static_cast<size_t>(a)] =
          rng.NextBounded(4) == 0
              ? 0
              : rng.NextBounded(static_cast<uint32_t>(
                    schema.dimension(a).cardinality));
    }
    const double measure =
        r == kNegativeZeroRow
            ? -0.0
            : static_cast<double>(rng.NextBounded(100000)) / 7.0 - 5000.0;
    fact.Append(dims, measure);
  }
  return fact;
}

void ExpectBitIdentical(const GroupedResult& actual,
                        const GroupedResult& expected) {
  ASSERT_EQ(actual.group_attrs, expected.group_attrs);
  ASSERT_EQ(actual.keys, expected.keys);
  ASSERT_EQ(actual.sums.size(), expected.sums.size());
  ASSERT_EQ(actual.aggregates.size(), expected.aggregates.size());
  for (size_t i = 0; i < expected.sums.size(); ++i) {
    ASSERT_EQ(std::memcmp(&actual.sums[i], &expected.sums[i], sizeof(double)),
              0)
        << "group " << i;
    const AggregateState& a = actual.aggregates[i];
    const AggregateState& e = expected.aggregates[i];
    ASSERT_EQ(std::memcmp(&a.sum, &e.sum, sizeof(a.sum)), 0) << "group " << i;
    ASSERT_EQ(std::memcmp(&a.count, &e.count, sizeof(a.count)), 0)
        << "group " << i;
    ASSERT_EQ(std::memcmp(&a.min, &e.min, sizeof(a.min)), 0) << "group " << i;
    ASSERT_EQ(std::memcmp(&a.max, &e.max, sizeof(a.max)), 0) << "group " << i;
  }
}

// `table`'s full scan for γ group_by σ selection, the selection's values
// taken from row `value_row`.
template <typename Table>
RowScan ScanOf(const Table& table, RowStates states, AttributeSet group_by,
               AttributeSet selection, size_t value_row) {
  RowScan scan{table.num_rows(), {}, {}, states};
  for (int a : selection.ToVector()) {
    scan.predicates.push_back(
        {table.column_data(a), table.column_data(a)[value_row]});
  }
  for (int a : group_by.ToVector()) {
    scan.group_columns.push_back(table.column_data(a));
  }
  return scan;
}

// The serial sort path over the same rows: a sort-path GroupAccumulator
// fed every matching row in row order.
GroupedResult SerialSortPath(const CubeSchema& schema, AttributeSet group_by,
                             const RowScan& scan) {
  GroupAccumulator acc(schema, group_by, scan.states);
  EXPECT_TRUE(acc.sorts());
  for (size_t r = 0; r < scan.rows; ++r) {
    if (scan.Matches(r)) {
      acc.AddRow(scan.group_columns.data(), r, AggregateState{});
    }
  }
  return acc.Finish();
}

TEST(PooledSortTest, MatchesSerialSortPathBitForBitOnAnyPool) {
  const CubeSchema schema = Schema5();
  Pcg32 rng(2027);
  const FactTable fact = SkewedFacts(schema, rng);
  const MaterializedView view =
      MaterializedView::FromFactTable(fact, schema.AllAttributes());
  ASSERT_GE(view.num_rows(), kPooledSortMinRows);
  ThreadPool pool1(1), pool2(2), pool8(8);
  size_t cases = 0;
  for (AttributeSet group_by : schema.AllAttributes().Subsets()) {
    // No selection, and one attribute outside the group-by when there is
    // one, its value drawn from a random row.
    std::vector<AttributeSet> selections = {AttributeSet()};
    const std::vector<int> rest =
        schema.AllAttributes().Minus(group_by).ToVector();
    if (!rest.empty()) {
      selections.push_back(AttributeSet::Of(
          {rest[rng.NextBounded(static_cast<uint32_t>(rest.size()))]}));
    }
    for (AttributeSet selection : selections) {
      const size_t value_row = rng.NextBounded(static_cast<uint32_t>(kRows));
      const RowScan raw = ScanOf(fact, RowStates(fact.measure_data()),
                                 group_by, selection, value_row);
      const RowScan stored =
          ScanOf(view, RowStates(view.aggregate_data()), group_by, selection,
                 value_row % view.num_rows());
      for (const RowScan* scan : {&raw, &stored}) {
        SCOPED_TRACE(group_by.ToString(schema.names()) + " | " +
                     selection.ToString(schema.names()) +
                     (scan == &raw ? " raw" : " view"));
        const GroupedResult expected = SerialSortPath(schema, group_by, *scan);
        for (ThreadPool* pool : {&pool1, &pool2, &pool8}) {
          SCOPED_TRACE("threads " + std::to_string(pool->num_threads()));
          ExpectBitIdentical(SortGroupsOnPool(schema, group_by, *scan, *pool),
                             expected);
          ++cases;
        }
      }
    }
  }
  EXPECT_EQ(cases, (32u + 31u) * 2u * 3u);
}

// A selection no row matches leaves every range empty; one matching a
// few rows leaves ranges shorter than the radix sort's minimum.
TEST(PooledSortTest, EmptyAndTinyRanges) {
  const CubeSchema schema = Schema5();
  Pcg32 rng(7);
  const FactTable fact = SkewedFacts(schema, rng);
  const AttributeSet group_by = AttributeSet::Of({0, 1, 2, 3});
  ThreadPool pool(8);
  RowScan none = ScanOf(fact, RowStates(fact.measure_data()), group_by,
                        AttributeSet::Of({4}), 0);
  none.predicates[0].value = 16;  // outside e's domain
  const GroupedResult empty = SortGroupsOnPool(schema, group_by, none, pool);
  EXPECT_EQ(empty.num_rows(), 0u);
  ExpectBitIdentical(empty, SerialSortPath(schema, group_by, none));

  // Rows with a = 7 and e = 3: a few hundred pairs over eight ranges.
  RowScan few = ScanOf(fact, RowStates(fact.measure_data()), group_by,
                       AttributeSet::Of({0, 4}), 0);
  few.predicates[0].value = 7;
  few.predicates[1].value = 3;
  const GroupedResult expected = SerialSortPath(schema, group_by, few);
  ASSERT_GT(expected.num_rows(), 0u);
  ASSERT_LT(expected.num_rows(), kKeySortRadixMin);
  ExpectBitIdentical(SortGroupsOnPool(schema, group_by, few, pool), expected);
}

// ---------------------------------------------------------------------------
// Executor::Execute on the shared pool.
// ---------------------------------------------------------------------------

// Keys and counts exactly, sums to 1e-9 relative: ExecuteNaive folds raw
// facts, the view a view's states.
void ExpectMatchesNaive(const GroupedResult& actual,
                        const GroupedResult& naive) {
  ASSERT_EQ(actual.keys, naive.keys);
  ASSERT_EQ(actual.num_rows(), naive.num_rows());
  for (size_t i = 0; i < naive.num_rows(); ++i) {
    ASSERT_EQ(actual.aggregates[i].count, naive.aggregates[i].count);
    const double scale = std::max(1.0, std::abs(naive.sums[i]));
    ASSERT_LE(std::abs(actual.sums[i] - naive.sums[i]), 1e-9 * scale);
  }
}

// Every wide group-by of a compressed base view above the minimum (the
// selection-free ones read its row store) and of a catalog with no view
// (raw scans, whose fold order is ExecuteNaive's): the result equals
// ExecuteNaive's and the serial sort path's over the same storage, and
// the stats are the serial row-store path's.
TEST(PooledSortExecutorTest, SharedPoolMatchesNaiveAndSerialStats) {
  const CubeSchema schema = Schema5();
  Pcg32 rng(99);
  const FactTable fact = SkewedFacts(schema, rng);
  const AttributeSet base = schema.AllAttributes();
  Catalog with_view(&fact);
  with_view.MaterializeView(base);
  ASSERT_EQ(with_view.CompressAllViews(), 1u);
  const MaterializedView& view = with_view.view(base);
  Catalog raw_only(&fact);
  size_t cases = 0;
  for (const Catalog* catalog : {&with_view, &raw_only}) {
    const Executor executor(catalog);
    const bool raw = catalog == &raw_only;
    for (AttributeSet group_by : base.Subsets()) {
      std::vector<AttributeSet> selections = {AttributeSet()};
      const std::vector<int> rest = base.Minus(group_by).ToVector();
      if (!rest.empty()) selections.push_back(AttributeSet::Of({rest.back()}));
      for (AttributeSet selection : selections) {
        const SliceQuery query(group_by, selection);
        const size_t rows = raw ? fact.num_rows() : view.num_rows();
        if (!SortsGroups(schema.DomainSize(group_by),
                         static_cast<double>(rows))) {
          continue;
        }
        // A selection on a compressed view goes columnar, not pooled.
        if (!raw && !selection.empty()) continue;
        SCOPED_TRACE(query.ToString(schema.names()) + (raw ? " raw" : ""));
        const size_t value_row =
            rng.NextBounded(static_cast<uint32_t>(fact.num_rows()));
        std::vector<uint32_t> values;
        for (int a : selection.ToVector()) {
          values.push_back(fact.dim(value_row, a));
        }
        ExecutionStats stats;
        const GroupedResult result = executor.Execute(query, values, &stats);
        ExpectMatchesNaive(result, executor.ExecuteNaive(query, values));
        const RowScan scan =
            raw ? ScanOf(fact, RowStates(fact.measure_data()), group_by,
                         selection, value_row)
                : ScanOf(view, RowStates(view.aggregate_data()), group_by,
                         selection, 0);
        ExpectBitIdentical(result, SerialSortPath(schema, group_by, scan));
        if (raw) ExpectBitIdentical(result, executor.ExecuteNaive(query, values));

        EXPECT_EQ(stats.rows_processed, rows);
        EXPECT_EQ(stats.used_raw, raw);
        EXPECT_EQ(stats.view, raw ? AttributeSet() : base);
        EXPECT_TRUE(stats.index.empty());
        EXPECT_FALSE(stats.used_columnar);
        EXPECT_EQ(stats.bytes_scanned,
                  rows * (raw ? 5u * 4u + 8u
                              : 5u * 4u + sizeof(AggregateState)));
        EXPECT_EQ(stats.estimated_cost, static_cast<double>(rows));
        ++cases;
      }
    }
  }
  EXPECT_GE(cases, 20u);
}

}  // namespace
}  // namespace olapidx
