#include "engine/materialized_view.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/fact_generator.h"
#include "engine/group_table.h"
#include "engine/key_codec.h"

namespace olapidx {
namespace {

CubeSchema SmallSchema() {
  return CubeSchema(
      {Dimension{"a", 4}, Dimension{"b", 3}, Dimension{"c", 2}});
}

FactTable FixedFacts() {
  CubeSchema schema = SmallSchema();
  FactTable fact(schema);
  fact.Append({0, 0, 0}, 1.0);
  fact.Append({0, 0, 1}, 2.0);
  fact.Append({0, 1, 0}, 4.0);
  fact.Append({1, 0, 0}, 8.0);
  fact.Append({1, 0, 0}, 16.0);  // duplicate key in abc
  return fact;
}

TEST(FactTableTest, AppendAndAccess) {
  FactTable fact = FixedFacts();
  EXPECT_EQ(fact.num_rows(), 5u);
  EXPECT_EQ(fact.dim(3, 0), 1u);
  EXPECT_EQ(fact.dim(3, 1), 0u);
  EXPECT_EQ(fact.measure(4), 16.0);
  EXPECT_EQ(fact.RowDims(2), (std::vector<uint32_t>{0, 1, 0}));
}

TEST(MaterializedViewTest, FullGroupByMergesDuplicates) {
  FactTable fact = FixedFacts();
  MaterializedView v = MaterializedView::FromFactTable(
      fact, AttributeSet::Of({0, 1, 2}));
  EXPECT_EQ(v.num_rows(), 4u);  // (1,0,0) appears twice
  // Rows sorted by (a, b, c); find (1,0,0) → sum 24.
  double sum_100 = 0.0;
  for (size_t r = 0; r < v.num_rows(); ++r) {
    if (v.dim(r, 0) == 1 && v.dim(r, 1) == 0 && v.dim(r, 2) == 0) {
      sum_100 = v.sum(r);
    }
  }
  EXPECT_EQ(sum_100, 24.0);
}

TEST(MaterializedViewTest, PartialGroupBy) {
  FactTable fact = FixedFacts();
  MaterializedView v =
      MaterializedView::FromFactTable(fact, AttributeSet::Of({0}));
  EXPECT_EQ(v.num_rows(), 2u);  // a ∈ {0, 1}
  std::map<uint32_t, double> sums;
  for (size_t r = 0; r < v.num_rows(); ++r) sums[v.dim(r, 0)] = v.sum(r);
  EXPECT_EQ(sums[0], 7.0);   // 1 + 2 + 4
  EXPECT_EQ(sums[1], 24.0);  // 8 + 16
}

TEST(MaterializedViewTest, ApexViewIsGrandTotal) {
  FactTable fact = FixedFacts();
  MaterializedView v =
      MaterializedView::FromFactTable(fact, AttributeSet());
  ASSERT_EQ(v.num_rows(), 1u);
  EXPECT_EQ(v.sum(0), 31.0);
  EXPECT_TRUE(v.RowKey(0).empty());
}

TEST(MaterializedViewTest, RollupFromParentMatchesDirect) {
  FactTable fact = GenerateUniformFacts(SmallSchema(), 500, /*seed=*/7);
  MaterializedView base = MaterializedView::FromFactTable(
      fact, AttributeSet::Of({0, 1, 2}));
  for (uint32_t mask = 0; mask < 8; ++mask) {
    AttributeSet attrs = AttributeSet::FromMask(mask);
    MaterializedView direct =
        MaterializedView::FromFactTable(fact, attrs);
    MaterializedView rolled = MaterializedView::FromView(base, attrs);
    ASSERT_EQ(direct.num_rows(), rolled.num_rows()) << "mask " << mask;
    for (size_t r = 0; r < direct.num_rows(); ++r) {
      EXPECT_EQ(direct.RowKey(r), rolled.RowKey(r));
      EXPECT_NEAR(direct.sum(r), rolled.sum(r), 1e-9);
    }
  }
}

TEST(MaterializedViewTest, RowsSortedByKey) {
  FactTable fact = GenerateUniformFacts(SmallSchema(), 300, /*seed=*/9);
  MaterializedView v = MaterializedView::FromFactTable(
      fact, AttributeSet::Of({0, 1}));
  for (size_t r = 1; r < v.num_rows(); ++r) {
    EXPECT_LT(v.RowKey(r - 1), v.RowKey(r));
  }
}

TEST(MaterializedViewTest, SumsPreserveTotal) {
  FactTable fact = GenerateUniformFacts(SmallSchema(), 400, /*seed=*/11);
  double total = 0.0;
  for (size_t r = 0; r < fact.num_rows(); ++r) total += fact.measure(r);
  for (uint32_t mask = 0; mask < 8; ++mask) {
    MaterializedView v = MaterializedView::FromFactTable(
        fact, AttributeSet::FromMask(mask));
    double view_total = 0.0;
    for (size_t r = 0; r < v.num_rows(); ++r) view_total += v.sum(r);
    EXPECT_NEAR(view_total, total, 1e-6) << "mask " << mask;
  }
}

// ---------------------------------------------------------------------------
// Bit-exact oracle: the unordered_map + sort aggregation views used before
// GroupTable, merging in row order from AggregateState{}.
// ---------------------------------------------------------------------------

using KeyedStates = std::vector<std::pair<uint64_t, AggregateState>>;

bool StatesBitEq(const AggregateState& a, const AggregateState& b) {
  return std::memcmp(&a.sum, &b.sum, sizeof(double)) == 0 &&
         a.count == b.count &&
         std::memcmp(&a.min, &b.min, sizeof(double)) == 0 &&
         std::memcmp(&a.max, &b.max, sizeof(double)) == 0;
}

// Groups rows [0, rows) by `codec`'s attributes in row order; the result
// is sorted by key.
template <typename DimFn, typename StateFn>
KeyedStates OracleAggregate(const KeyCodec& codec, size_t rows,
                            DimFn&& dim_of, StateFn&& state_of) {
  std::unordered_map<uint64_t, AggregateState> groups;
  for (size_t r = 0; r < rows; ++r) {
    uint64_t key = 0;
    for (int i = 0; i < codec.num_attrs(); ++i) {
      key |= codec.Encode(i, dim_of(r, codec.attr_order()[
                                          static_cast<size_t>(i)]));
    }
    groups[key].Merge(state_of(r));
  }
  KeyedStates out(groups.begin(), groups.end());
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  return out;
}

void ExpectViewEquals(const MaterializedView& view, const KeyCodec& codec,
                      const KeyedStates& expected) {
  ASSERT_EQ(view.num_rows(), expected.size());
  for (size_t r = 0; r < view.num_rows(); ++r) {
    ASSERT_EQ(view.KeyAt(codec, r), expected[r].first) << "row " << r;
    ASSERT_TRUE(StatesBitEq(view.aggregate(r), expected[r].second))
        << "row " << r;
  }
}

// Zipf-skewed rows (so groups repeat) with fractional measures, a few of
// them -0.0.
FactTable OracleFacts(size_t rows, uint64_t seed) {
  const CubeSchema schema({Dimension{"a", 12}, Dimension{"b", 7},
                           Dimension{"c", 4}, Dimension{"d", 9}});
  const FactTable skewed = GenerateZipfFacts(schema, rows, 1.1, seed);
  FactTable fact(schema);
  Pcg32 rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    const double measure =
        rng.NextBounded(16) == 0
            ? -0.0
            : static_cast<double>(rng.NextBounded(100000)) / 3.0;
    fact.Append(skewed.RowDims(r), measure);
  }
  return fact;
}

TEST(MaterializedViewTest, FromFactTableMatchesOracleBitExactly) {
  const FactTable fact = OracleFacts(3000, 51);
  for (uint32_t mask = 0; mask < 16; ++mask) {
    SCOPED_TRACE(::testing::Message() << "mask " << mask);
    const AttributeSet attrs = AttributeSet::FromMask(mask);
    const KeyCodec codec(fact.schema(), attrs.ToVector());
    ExpectViewEquals(
        MaterializedView::FromFactTable(fact, attrs), codec,
        OracleAggregate(
            codec, fact.num_rows(),
            [&](size_t r, int a) { return fact.dim(r, a); },
            [&](size_t r) {
              return AggregateState::OfMeasure(fact.measure(r));
            }));
  }
}

TEST(MaterializedViewTest, FromViewMatchesOracleBitExactly) {
  const FactTable fact = OracleFacts(3000, 53);
  for (uint32_t parent_mask : {0xfu, 0xdu, 0x6u}) {
    const MaterializedView parent = MaterializedView::FromFactTable(
        fact, AttributeSet::FromMask(parent_mask));
    for (AttributeSet attrs :
         AttributeSet::FromMask(parent_mask).Subsets()) {
      SCOPED_TRACE(::testing::Message() << "parent " << parent_mask
                                        << " child " << attrs.mask());
      const KeyCodec codec(fact.schema(), attrs.ToVector());
      ExpectViewEquals(
          MaterializedView::FromView(parent, attrs), codec,
          OracleAggregate(
              codec, parent.num_rows(),
              [&](size_t r, int a) { return parent.dim(r, a); },
              [&](size_t r) { return parent.aggregate(r); }));
    }
  }
}

TEST(MaterializedViewTest, ApplyDeltaMatchesOracleBitExactly) {
  const FactTable fact = OracleFacts(4000, 57);
  for (uint32_t mask = 0; mask < 16; ++mask) {
    for (size_t split : {size_t{0}, size_t{1}, size_t{2500}, size_t{3999}}) {
      SCOPED_TRACE(::testing::Message() << "mask " << mask << " split "
                                        << split);
      const AttributeSet attrs = AttributeSet::FromMask(mask);
      const KeyCodec codec(fact.schema(), attrs.ToVector());
      FactTable head(fact.schema());
      for (size_t r = 0; r < split; ++r) {
        head.Append(fact.RowDims(r), fact.measure(r));
      }
      MaterializedView view = MaterializedView::FromFactTable(head, attrs);
      // Oracle: the delta's groups aggregated in fact-row order, each
      // merged once into the existing group of its key or inserted.
      std::map<uint64_t, AggregateState> expected;
      for (size_t r = 0; r < view.num_rows(); ++r) {
        expected.emplace(view.KeyAt(codec, r), view.aggregate(r));
      }
      const KeyedStates delta = OracleAggregate(
          codec, fact.num_rows() - split,
          [&](size_t r, int a) { return fact.dim(split + r, a); },
          [&](size_t r) {
            return AggregateState::OfMeasure(fact.measure(split + r));
          });
      for (const auto& [key, state] : delta) {
        auto [it, inserted] = expected.emplace(key, state);
        if (!inserted) it->second.Merge(state);
      }
      view.ApplyDelta(fact, split, fact.num_rows());
      ExpectViewEquals(view, codec,
                       KeyedStates(expected.begin(), expected.end()));
    }
  }
}

// Views wide enough for SortsGroups: 8,000 uniform facts over 92,160
// keys give a ~7,700-row base view, so the wide views built from the
// facts and the wide roll-ups of the base view take the sort path, the
// narrow ones the hash path. Both must match the oracle bit for bit.
TEST(MaterializedViewTest, SortPathMatchesOracleBitExactly) {
  const CubeSchema schema({Dimension{"a", 16}, Dimension{"b", 12},
                           Dimension{"c", 10}, Dimension{"d", 8},
                           Dimension{"e", 6}});
  const FactTable uniform = GenerateUniformFacts(schema, 8000, /*seed=*/59);
  FactTable fact(schema);
  Pcg32 rng(61);
  for (size_t r = 0; r < uniform.num_rows(); ++r) {
    const double measure =
        rng.NextBounded(16) == 0
            ? -0.0
            : static_cast<double>(rng.NextBounded(100000)) / 3.0;
    fact.Append(uniform.RowDims(r), measure);
  }
  const AttributeSet base = schema.AllAttributes();
  const MaterializedView parent = MaterializedView::FromFactTable(fact, base);
  ASSERT_GE(parent.num_rows(), 4096u);
  size_t sorted_from_facts = 0;
  size_t sorted_from_parent = 0;
  for (AttributeSet attrs : base.Subsets()) {
    SCOPED_TRACE(::testing::Message() << "view " << attrs.mask());
    const KeyCodec codec(schema, attrs.ToVector());
    const double domain = schema.DomainSize(attrs);
    if (SortsGroups(domain, static_cast<double>(fact.num_rows()))) {
      ++sorted_from_facts;
    }
    if (SortsGroups(domain, static_cast<double>(parent.num_rows()))) {
      ++sorted_from_parent;
    }
    ExpectViewEquals(
        MaterializedView::FromFactTable(fact, attrs), codec,
        OracleAggregate(
            codec, fact.num_rows(),
            [&](size_t r, int a) { return fact.dim(r, a); },
            [&](size_t r) {
              return AggregateState::OfMeasure(fact.measure(r));
            }));
    ExpectViewEquals(
        MaterializedView::FromView(parent, attrs), codec,
        OracleAggregate(
            codec, parent.num_rows(),
            [&](size_t r, int a) { return parent.dim(r, a); },
            [&](size_t r) { return parent.aggregate(r); }));
  }
  EXPECT_GT(sorted_from_facts, 0u);
  EXPECT_LT(sorted_from_facts, 32u);
  EXPECT_GT(sorted_from_parent, 0u);
  EXPECT_LT(sorted_from_parent, 32u);
}

TEST(MaterializedViewDeathTest, RollupRequiresSubset) {
  FactTable fact = FixedFacts();
  MaterializedView a =
      MaterializedView::FromFactTable(fact, AttributeSet::Of({0}));
  EXPECT_DEATH(MaterializedView::FromView(a, AttributeSet::Of({1})),
               "CHECK");
}

}  // namespace
}  // namespace olapidx
