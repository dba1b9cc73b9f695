// Segment-at-a-time aggregation and the sort path against the
// hash-every-group path: a GroupAccumulator told its input's ordered
// group-by prefix (OrderedGroupPrefix), and one that sorts (key, row)
// pairs and re-reads each row's state from the plan's storage, must each
// give the result of a prefix-0 accumulator fed the same rows, bit for
// bit. Random schemas of 4–6 dimensions with fractional and -0.0
// measures; every materialized view, every group-by and selection; rows in
// each order the engine visits them: fact order for a raw scan, view order
// over the row store and over the column store, and index-key order
// through ViewIndex::ScanPrefix for random, permuted and partial keys. SortsGroups, the rule choosing
// the sort path, is checked at its boundaries and, on a view of over 4,096
// rows, picks sorting itself.

#include "engine/group_accumulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "cost/analytical_model.h"
#include "engine/catalog.h"
#include "engine/column_store.h"
#include "engine/materialized_view.h"
#include "engine/view_index.h"

namespace olapidx {
namespace {

bool BitEq(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectSameResult(const GroupedResult& actual,
                      const GroupedResult& expected) {
  ASSERT_EQ(actual.group_attrs, expected.group_attrs);
  ASSERT_EQ(actual.keys, expected.keys);
  ASSERT_EQ(actual.sums.size(), expected.sums.size());
  ASSERT_EQ(actual.aggregates.size(), expected.aggregates.size());
  for (size_t i = 0; i < expected.sums.size(); ++i) {
    const AggregateState& a = actual.aggregates[i];
    const AggregateState& e = expected.aggregates[i];
    ASSERT_TRUE(BitEq(actual.sums[i], expected.sums[i])) << "group " << i;
    ASSERT_EQ(a.count, e.count) << "group " << i;
    ASSERT_TRUE(BitEq(a.sum, e.sum)) << "group " << i;
    ASSERT_TRUE(BitEq(a.min, e.min)) << "group " << i;
    ASSERT_TRUE(BitEq(a.max, e.max)) << "group " << i;
  }
}

// ---------------------------------------------------------------------------
// OrderedGroupPrefix on hand cases.
// ---------------------------------------------------------------------------

AttributeSet Set(std::initializer_list<int> attrs) {
  return AttributeSet::Of(attrs);
}

TEST(OrderedAggregationTest, PrefixFollowsScanOrder) {
  const std::vector<int> view = {0, 1, 2, 3};
  EXPECT_EQ(OrderedGroupPrefix(view, Set({0, 1, 3}), Set({})), 2u);
  EXPECT_EQ(OrderedGroupPrefix(view, Set({0, 1, 2, 3}), Set({})), 4u);
  // d1 is neither selected nor the next group-by attribute.
  EXPECT_EQ(OrderedGroupPrefix(view, Set({0, 2}), Set({})), 1u);
  // The group-by does not start the scan order.
  EXPECT_EQ(OrderedGroupPrefix(view, Set({1, 2}), Set({})), 0u);
}

TEST(OrderedAggregationTest, PrefixSkipsInterleavedSelectionAttributes) {
  const std::vector<int> view = {0, 1, 2, 3, 4};
  EXPECT_EQ(OrderedGroupPrefix(view, Set({1, 3}), Set({0, 2})), 2u);
  EXPECT_EQ(OrderedGroupPrefix(view, Set({0, 2, 4}), Set({1, 3})), 3u);
  EXPECT_EQ(OrderedGroupPrefix(view, Set({0, 4}), Set({1, 3})), 1u);
  // Selecting everything the group-by does not use: fully ordered.
  EXPECT_EQ(OrderedGroupPrefix(view, Set({3}), Set({0, 1, 2, 4})), 1u);
}

TEST(OrderedAggregationTest, PrefixOfIndexKeyOrder) {
  // A permuted key: rows arrive sorted by (d2, d0, d1).
  const std::vector<int> key = {2, 0, 1};
  EXPECT_EQ(OrderedGroupPrefix(key, Set({0, 1}), Set({2})), 2u);
  EXPECT_EQ(OrderedGroupPrefix(key, Set({0, 2}), Set({})), 0u);
  EXPECT_EQ(OrderedGroupPrefix(key, Set({2, 3}), Set({})), 1u);
  // A key that does not cover the view stops at its last attribute.
  EXPECT_EQ(OrderedGroupPrefix({1}, Set({1, 2}), Set({0})), 1u);
}

TEST(OrderedAggregationTest, PrefixOfEmptyGroupByAndRawScan) {
  EXPECT_EQ(OrderedGroupPrefix({0, 1, 2}, Set({}), Set({})), 0u);
  EXPECT_EQ(OrderedGroupPrefix({0, 1, 2}, Set({}), Set({0, 1})), 0u);
  EXPECT_EQ(OrderedGroupPrefix({}, Set({0, 1}), Set({})), 0u);
  EXPECT_EQ(OrderedGroupPrefix({}, Set({}), Set({2})), 0u);
}

// ---------------------------------------------------------------------------
// Segmented and sorted against unsegmented, over every visit order.
// ---------------------------------------------------------------------------

// A schema of 4–6 dimensions with 2–6 values each, so groups repeat.
CubeSchema RandomSchema(Pcg32& rng) {
  const int num_dims = 4 + static_cast<int>(rng.NextBounded(3));
  std::vector<Dimension> dims;
  for (int i = 0; i < num_dims; ++i) {
    dims.push_back(Dimension{"d" + std::to_string(i),
                             uint64_t{2} + rng.NextBounded(5)});
  }
  return CubeSchema(dims);
}

// Fractional measures, one row in eight -0.0 (a fold from zero sums it to
// +0.0 while min and max keep -0.0).
FactTable RandomFacts(const CubeSchema& schema, size_t rows, Pcg32& rng) {
  FactTable fact(schema);
  std::vector<uint32_t> dims(static_cast<size_t>(schema.num_dimensions()));
  for (size_t r = 0; r < rows; ++r) {
    for (int a = 0; a < schema.num_dimensions(); ++a) {
      dims[static_cast<size_t>(a)] = rng.NextBounded(
          static_cast<uint32_t>(schema.dimension(a).cardinality));
    }
    const double measure =
        rng.NextBounded(8) == 0
            ? -0.0
            : static_cast<double>(rng.NextBounded(100000)) / 7.0 - 5000.0;
    fact.Append(dims, measure);
  }
  return fact;
}

// A random index key on `view`: a random non-empty subset of its
// attributes in random order.
IndexKey RandomKey(AttributeSet view, Pcg32& rng) {
  std::vector<int> attrs = view.ToVector();
  for (size_t i = attrs.size(); i > 1; --i) {
    std::swap(attrs[i - 1],
              attrs[rng.NextBounded(static_cast<uint32_t>(i))]);
  }
  attrs.resize(1 + rng.NextBounded(static_cast<uint32_t>(attrs.size())));
  return IndexKey(attrs);
}

// How many cases ran, and how many of them aggregated segment by segment.
struct Coverage {
  size_t cases = 0;
  size_t ordered = 0;          // prefix > 0
  size_t partly_ordered = 0;   // 0 < prefix < group-by size
  size_t index_ordered = 0;    // prefix > 0 on an index probe
};

// Feeds the rows `visit` yields to an accumulator told
// OrderedGroupPrefix(scan_order, ...), to a sort-path one reading states
// from `states` and to a prefix-0 one, and compares the first two results
// with the last.
template <typename Visit>
void ExpectPathsMatchUnordered(const CubeSchema& schema,
                               const std::vector<int>& scan_order,
                               AttributeSet group_by, AttributeSet selection,
                               RowStates states, Visit&& visit,
                               Coverage& coverage) {
  const size_t prefix = OrderedGroupPrefix(scan_order, group_by, selection);
  GroupAccumulator ordered(schema, group_by, prefix);
  GroupAccumulator sorted(schema, group_by, states);
  GroupAccumulator unordered(schema, group_by);
  visit([&](size_t row, const uint32_t* dims, const AggregateState& state) {
    ordered.AddDims(row, dims, state);
    sorted.AddDims(row, dims, state);
    unordered.AddDims(row, dims, state);
  });
  const GroupedResult expected = unordered.Finish();
  {
    SCOPED_TRACE("segmented");
    ExpectSameResult(ordered.Finish(), expected);
  }
  {
    SCOPED_TRACE("sorted");
    ExpectSameResult(sorted.Finish(), expected);
  }
  ++coverage.cases;
  if (prefix > 0) ++coverage.ordered;
  if (prefix > 0 && prefix < group_by.ToVector().size()) {
    ++coverage.partly_ordered;
  }
}

void CheckSchema(uint64_t seed, Coverage& coverage) {
  Pcg32 rng(seed);
  const CubeSchema schema = RandomSchema(rng);
  const FactTable fact = RandomFacts(schema, 400, rng);
  const size_t num_dims = static_cast<size_t>(schema.num_dimensions());
  const AttributeSet all = AttributeSet::FromMask(
      static_cast<uint32_t>((uint64_t{1} << num_dims) - 1));
  for (AttributeSet view_attrs : all.Subsets()) {
    if (view_attrs.empty()) continue;
    const MaterializedView view =
        MaterializedView::FromFactTable(fact, view_attrs);
    const ColumnStore store = ColumnStore::FromView(view);
    const std::vector<int> view_order = view_attrs.ToVector();
    std::vector<ViewIndex> indexes;
    for (int k = 0; k < 2; ++k) {
      indexes.emplace_back(view, RandomKey(view_attrs, rng));
    }
    std::vector<uint32_t> dims(num_dims, 0);
    for (AttributeSet selection : view_attrs.Subsets()) {
      // Selection values of a random view row: a non-empty slice.
      const size_t pick =
          rng.NextBounded(static_cast<uint32_t>(view.num_rows()));
      std::vector<uint32_t> sel_value(num_dims, 0);
      for (int a : selection.ToVector()) {
        sel_value[static_cast<size_t>(a)] = view.dim(pick, a);
      }
      const auto row_matches = [&](size_t r) {
        for (int a : selection.ToVector()) {
          if (view.dim(r, a) != sel_value[static_cast<size_t>(a)]) {
            return false;
          }
        }
        return true;
      };
      // Row r's dimensions, indexed by attribute id.
      const auto row_dims = [&](size_t r) {
        for (int a : view_order) dims[static_cast<size_t>(a)] = view.dim(r, a);
        return static_cast<const uint32_t*>(dims.data());
      };
      for (AttributeSet group_by : view_attrs.Minus(selection).Subsets()) {
        SCOPED_TRACE(::testing::Message()
                     << "seed " << seed << " view " << view_attrs.mask()
                     << " group-by " << group_by.mask() << " selection "
                     << selection.mask());
        {
          SCOPED_TRACE("row store, view order");
          ExpectPathsMatchUnordered(
              schema, view_order, group_by, selection,
              RowStates(view.aggregate_data()),
              [&](auto&& feed) {
                for (size_t r = 0; r < view.num_rows(); ++r) {
                  if (row_matches(r)) {
                    feed(r, row_dims(r), view.aggregate(r));
                  }
                }
              },
              coverage);
        }
        {
          SCOPED_TRACE("column store, view order");
          std::vector<ColumnStore::Predicate> predicates;
          for (int a : selection.ToVector()) {
            predicates.push_back({a, sel_value[static_cast<size_t>(a)]});
          }
          ExpectPathsMatchUnordered(
              schema, view_order, group_by, selection, RowStates(&store),
              [&](auto&& feed) {
                store.Scan(predicates, group_by,
                           [&](size_t r, const uint32_t* scanned,
                               const AggregateState& state) {
                             feed(r, scanned, state);
                           });
              },
              coverage);
        }
        if (view_attrs == all) {
          // A raw scan: fact rows in order, each state a single measure,
          // -0.0 among them.
          SCOPED_TRACE("raw scan, fact order");
          ExpectPathsMatchUnordered(
              schema, {}, group_by, selection,
              RowStates(fact.measure_data()),
              [&](auto&& feed) {
                for (size_t r = 0; r < fact.num_rows(); ++r) {
                  bool match = true;
                  for (int a : selection.ToVector()) {
                    match = match && fact.dim(r, a) ==
                                         sel_value[static_cast<size_t>(a)];
                  }
                  if (!match) continue;
                  const std::vector<uint32_t> fact_dims = fact.RowDims(r);
                  feed(r, fact_dims.data(),
                       AggregateState::OfMeasure(fact.measure(r)));
                }
              },
              coverage);
        }
        for (const ViewIndex& index : indexes) {
          SCOPED_TRACE("index " + index.key().ToString(schema.names()));
          std::vector<uint32_t> prefix_values;
          const AttributeSet prefix =
              index.key().LongestSelectionPrefix(selection);
          for (int a : index.key().attrs()) {
            if (!prefix.Contains(a)) break;
            prefix_values.push_back(sel_value[static_cast<size_t>(a)]);
          }
          const size_t before = coverage.ordered;
          ExpectPathsMatchUnordered(
              schema, index.key().ToVector(), group_by, selection,
              RowStates(view.aggregate_data()),
              [&](auto&& feed) {
                index.ScanPrefix(prefix_values, [&](uint32_t r) {
                  if (row_matches(r)) feed(r, row_dims(r), view.aggregate(r));
                });
              },
              coverage);
          if (coverage.ordered > before) ++coverage.index_ordered;
        }
      }
    }
  }
}

// Both the segmented and the sort path, in every visit order.
TEST(OrderedAggregationTest, SegmentedMatchesUnorderedInEveryVisitOrder) {
  Coverage coverage;
  for (uint64_t seed : {1u, 2u, 3u}) {
    CheckSchema(seed, coverage);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The cases really aggregated segment by segment, and segments held
  // several groups each.
  EXPECT_GT(coverage.ordered, coverage.cases / 4);
  EXPECT_GT(coverage.partly_ordered, 0u);
  EXPECT_GT(coverage.index_ordered, 0u);
}

// A caller that claims an order its rows lack: segment ids go back down,
// which debug builds catch.
TEST(OrderedAggregationTest, DescendingSegmentIsCaughtInDebugBuilds) {
  const CubeSchema schema({Dimension{"a", 4}, Dimension{"b", 4}});
  const AttributeSet group_by = AttributeSet::Of({0, 1});
  EXPECT_DEBUG_DEATH(
      {
        GroupAccumulator acc(schema, group_by, 1);
        acc.AddDims(0, std::vector<uint32_t>{2, 0}.data(),
                    AggregateState::OfMeasure(1.0));
        acc.AddDims(1, std::vector<uint32_t>{1, 0}.data(),
                    AggregateState::OfMeasure(1.0));
      },
      "segment > segment_");
}

// ---------------------------------------------------------------------------
// The rule that picks the sort path.
// ---------------------------------------------------------------------------

TEST(OrderedAggregationTest, SortsGroupsAtItsBoundaries) {
  // The row floor: below 4,096 rows fed, the hash path runs however wide
  // the group-by.
  EXPECT_FALSE(SortsGroups(1e12, 4095));
  EXPECT_TRUE(SortsGroups(1e12, 4096));
  // The domain-to-rows ratio: 4,096 rows over 1,044 keys expect fewer
  // than 1,024 groups, a quarter of the rows; over 1,046 keys, more.
  EXPECT_LT(ExpectedDistinct(1044, 4096), 1024.0);
  EXPECT_FALSE(SortsGroups(1044, 4096));
  EXPECT_GT(ExpectedDistinct(1046, 4096), 1024.0);
  EXPECT_TRUE(SortsGroups(1046, 4096));
  // A domain of exactly a quarter of the rows cannot expect that many
  // groups.
  EXPECT_FALSE(SortsGroups(62'500, 250'000));
  // Group-by ∅ is one group.
  EXPECT_FALSE(SortsGroups(1, 1e6));
  // Row ids past 32 bits do not fit a (key, row) pair.
  EXPECT_TRUE(SortsGroups(1e19, 4294967295.0));
  EXPECT_FALSE(SortsGroups(1e19, 4294967296.0));
  // serve-cold's cube: its base view, built from 250k facts, sorts; the
  // {d1,d6} roll-up (domain 18,000) and a 250-row delta hash.
  EXPECT_TRUE(SortsGroups(100.0 * 200 * 50 * 80 * 120 * 60 * 90 * 40,
                          250'000));
  EXPECT_FALSE(SortsGroups(200.0 * 90, 250'000));
  EXPECT_FALSE(SortsGroups(100.0 * 200 * 50 * 80 * 120 * 60 * 90 * 40, 250));
}

// On a view of over 4,096 rows AccumulatorFor's own choice sorts the wide
// group-bys, and the sort path matches the hash path in view order over
// both stores and in the key order of a permuted fat index and of a
// partial one (a probe with an empty prefix visits every row).
TEST(OrderedAggregationTest, RuleSortsWideGroupBysOfALargeView) {
  const CubeSchema schema({Dimension{"a", 16}, Dimension{"b", 12},
                           Dimension{"c", 10}, Dimension{"d", 8},
                           Dimension{"e", 6}});
  Pcg32 rng(7);
  const FactTable fact = RandomFacts(schema, 6000, rng);
  const AttributeSet base = schema.AllAttributes();
  Catalog catalog(&fact);
  catalog.MaterializeView(base);
  ASSERT_TRUE(catalog.BuildIndex(base, IndexKey({4, 3, 2, 1, 0})).ok());
  ASSERT_TRUE(catalog.BuildIndex(base, IndexKey({2, 4})).ok());
  ASSERT_TRUE(catalog.CompressView(base).ok());
  const MaterializedView& view = catalog.view(base);
  const ColumnStore* store = catalog.column_store(base);
  ASSERT_GE(view.num_rows(), 4096u);
  const double rows = static_cast<double>(view.num_rows());
  std::vector<uint32_t> dims(5);
  const auto row_dims = [&](size_t r) {
    for (int a = 0; a < 5; ++a) dims[static_cast<size_t>(a)] = view.dim(r, a);
    return static_cast<const uint32_t*>(dims.data());
  };
  size_t sorted_cases = 0;
  for (AttributeSet group_by : base.Subsets()) {
    SCOPED_TRACE(::testing::Message() << "group-by " << group_by.mask());
    const SliceQuery query(group_by, AttributeSet());
    const bool sorts = SortsGroups(schema.DomainSize(group_by), rows);
    if (sorts) ++sorted_cases;
    const PlannedAccess scan{false, base, nullptr, AttributeSet(), rows};
    {
      SCOPED_TRACE("row store, view order");
      GroupAccumulator acc = AccumulatorFor(catalog, scan, nullptr, query);
      GroupAccumulator hashed(schema, group_by);
      EXPECT_EQ(acc.sorts(), sorts);
      for (size_t r = 0; r < view.num_rows(); ++r) {
        acc.AddDims(r, row_dims(r), view.aggregate(r));
        hashed.AddDims(r, row_dims(r), view.aggregate(r));
      }
      ExpectSameResult(acc.Finish(), hashed.Finish());
    }
    {
      SCOPED_TRACE("column store, view order");
      GroupAccumulator acc = AccumulatorFor(catalog, scan, store, query);
      GroupAccumulator hashed(schema, group_by);
      EXPECT_EQ(acc.sorts(), sorts);
      store->Scan([&](size_t r, const uint32_t* scanned,
                      const AggregateState& state) {
        acc.AddDims(r, scanned, state);
        hashed.AddDims(r, scanned, state);
      });
      ExpectSameResult(acc.Finish(), hashed.Finish());
    }
    for (const ViewIndex& index : catalog.indexes(base)) {
      SCOPED_TRACE("index " + index.key().ToString(schema.names()));
      const PlannedAccess probe{false, base, &index, AttributeSet(), rows};
      GroupAccumulator acc = AccumulatorFor(catalog, probe, nullptr, query);
      GroupAccumulator hashed(schema, group_by);
      EXPECT_EQ(acc.sorts(), sorts);
      index.ScanPrefix({}, [&](uint32_t r) {
        acc.AddDims(r, row_dims(r), view.aggregate(r));
        hashed.AddDims(r, row_dims(r), view.aggregate(r));
      });
      ExpectSameResult(acc.Finish(), hashed.Finish());
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Wide group-bys sorted and narrow ones hashed.
  EXPECT_GT(sorted_cases, 0u);
  EXPECT_LT(sorted_cases, 32u);
}

}  // namespace
}  // namespace olapidx
