// Segment-at-a-time aggregation against the hash-every-group path: a
// GroupAccumulator told its input's ordered group-by prefix
// (OrderedGroupPrefix) must give the result of a prefix-0 accumulator fed
// the same rows, bit for bit. Random schemas of 4–6 dimensions with
// fractional and -0.0 measures; every materialized view, every group-by
// and selection; rows in each order the engine visits them: view order
// over the row store and over the column store, and index-key order
// through ViewIndex::ScanPrefix for random, permuted and partial keys.

#include "engine/group_accumulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
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
// Segmented against unsegmented, over every visit order.
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
// OrderedGroupPrefix(scan_order, ...) and to a prefix-0 one, and compares
// their results.
template <typename Visit>
void ExpectOrderedMatchesUnordered(const CubeSchema& schema,
                                   const std::vector<int>& scan_order,
                                   AttributeSet group_by,
                                   AttributeSet selection, Visit&& visit,
                                   Coverage& coverage) {
  const size_t prefix = OrderedGroupPrefix(scan_order, group_by, selection);
  GroupAccumulator ordered(schema, group_by, prefix);
  GroupAccumulator unordered(schema, group_by);
  visit([&](const uint32_t* dims, const AggregateState& state) {
    ordered.AddDims(dims, state);
    unordered.AddDims(dims, state);
  });
  ExpectSameResult(ordered.Finish(), unordered.Finish());
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
          ExpectOrderedMatchesUnordered(
              schema, view_order, group_by, selection,
              [&](auto&& feed) {
                for (size_t r = 0; r < view.num_rows(); ++r) {
                  if (row_matches(r)) feed(row_dims(r), view.aggregate(r));
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
          ExpectOrderedMatchesUnordered(
              schema, view_order, group_by, selection,
              [&](auto&& feed) {
                store.Scan(predicates, group_by,
                           [&](size_t, const uint32_t* scanned,
                               const AggregateState& state) {
                             feed(scanned, state);
                           });
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
          ExpectOrderedMatchesUnordered(
              schema, index.key().attrs(), group_by, selection,
              [&](auto&& feed) {
                index.ScanPrefix(prefix_values, [&](uint32_t r) {
                  if (row_matches(r)) feed(row_dims(r), view.aggregate(r));
                });
              },
              coverage);
          if (coverage.ordered > before) ++coverage.index_ordered;
        }
      }
    }
  }
}

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
        acc.AddDims(std::vector<uint32_t>{2, 0}.data(),
                    AggregateState::OfMeasure(1.0));
        acc.AddDims(std::vector<uint32_t>{1, 0}.data(),
                    AggregateState::OfMeasure(1.0));
      },
      "segment > segment_");
}

}  // namespace
}  // namespace olapidx
