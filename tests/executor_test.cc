#include "engine/executor.h"

#include <gtest/gtest.h>

#include "data/fact_generator.h"
#include "workload/workload.h"

namespace olapidx {
namespace {

CubeSchema SmallSchema() {
  return CubeSchema(
      {Dimension{"a", 8}, Dimension{"b", 6}, Dimension{"c", 4}});
}

bool SameResult(const GroupedResult& x, const GroupedResult& y) {
  if (x.group_attrs != y.group_attrs) return false;
  if (x.num_rows() != y.num_rows()) return false;
  for (size_t r = 0; r < x.num_rows(); ++r) {
    if (x.keys[r] != y.keys[r]) return false;
    if (std::abs(x.sums[r] - y.sums[r]) > 1e-6) return false;
  }
  return true;
}

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest()
      : fact_(GenerateUniformFacts(SmallSchema(), 800, /*seed=*/21)),
        catalog_(&fact_),
        executor_(&catalog_) {}

  FactTable fact_;
  Catalog catalog_;
  Executor executor_;
};

TEST_F(ExecutorTest, RawFallbackMatchesNaive) {
  SliceQuery q(AttributeSet::Of({0}), AttributeSet::Of({1}));
  ExecutionStats stats;
  GroupedResult fast = executor_.Execute(q, {3}, &stats);
  GroupedResult naive = executor_.ExecuteNaive(q, {3});
  EXPECT_TRUE(SameResult(fast, naive));
  EXPECT_TRUE(stats.used_raw);
  EXPECT_EQ(stats.rows_processed, fact_.num_rows());
}

TEST_F(ExecutorTest, ViewScanBeatsRaw) {
  catalog_.MaterializeView(AttributeSet::Of({0, 1}));
  SliceQuery q(AttributeSet::Of({0}), AttributeSet::Of({1}));
  ExecutionStats stats;
  GroupedResult fast = executor_.Execute(q, {2}, &stats);
  EXPECT_TRUE(SameResult(fast, executor_.ExecuteNaive(q, {2})));
  EXPECT_FALSE(stats.used_raw);
  EXPECT_EQ(stats.view, AttributeSet::Of({0, 1}));
  EXPECT_TRUE(stats.index.empty());
  EXPECT_EQ(stats.rows_processed,
            catalog_.view(AttributeSet::Of({0, 1})).num_rows());
}

TEST_F(ExecutorTest, IndexScanTouchesOnlyMatchingRows) {
  AttributeSet ab = AttributeSet::Of({0, 1});
  catalog_.MaterializeView(ab);
  catalog_.BuildIndex(ab, IndexKey({1, 0}));
  SliceQuery q(AttributeSet::Of({0}), AttributeSet::Of({1}));
  ExecutionStats stats;
  GroupedResult fast = executor_.Execute(q, {4}, &stats);
  EXPECT_TRUE(SameResult(fast, executor_.ExecuteNaive(q, {4})));
  EXPECT_FALSE(stats.used_raw);
  EXPECT_EQ(stats.index, IndexKey({1, 0}));
  // Only the rows with b = 4 are touched.
  size_t matching = 0;
  const MaterializedView& view = catalog_.view(ab);
  for (size_t r = 0; r < view.num_rows(); ++r) {
    if (view.dim(r, 1) == 4) ++matching;
  }
  EXPECT_EQ(stats.rows_processed, matching);
  EXPECT_LT(stats.rows_processed, view.num_rows());
}

TEST_F(ExecutorTest, UselessIndexIgnored) {
  AttributeSet ab = AttributeSet::Of({0, 1});
  catalog_.MaterializeView(ab);
  catalog_.BuildIndex(ab, IndexKey({0, 1}));  // prefix a, but selection is b
  SliceQuery q(AttributeSet::Of({0}), AttributeSet::Of({1}));
  ExecutionStats stats;
  executor_.Execute(q, {1}, &stats);
  EXPECT_TRUE(stats.index.empty());  // plain view scan chosen
}

TEST_F(ExecutorTest, PartialPrefixIndexFiltersRemainder) {
  AttributeSet abc = AttributeSet::Of({0, 1, 2});
  catalog_.MaterializeView(abc);
  catalog_.BuildIndex(abc, IndexKey({2, 0, 1}));
  // Selection on c (prefix) and b (post-filter); group by a.
  SliceQuery q(AttributeSet::Of({0}), AttributeSet::Of({1, 2}));
  ExecutionStats stats;
  GroupedResult fast = executor_.Execute(q, {2, 3}, &stats);  // b=2, c=3
  EXPECT_TRUE(SameResult(fast, executor_.ExecuteNaive(q, {2, 3})));
  EXPECT_EQ(stats.index, IndexKey({2, 0, 1}));
  // Rows touched: all rows with c = 3 (b filtered after the scan).
  const MaterializedView& view = catalog_.view(abc);
  size_t c3 = 0;
  for (size_t r = 0; r < view.num_rows(); ++r) {
    if (view.dim(r, 2) == 3) ++c3;
  }
  EXPECT_EQ(stats.rows_processed, c3);
}

TEST_F(ExecutorTest, FullPointLookup) {
  AttributeSet abc = AttributeSet::Of({0, 1, 2});
  catalog_.MaterializeView(abc);
  catalog_.BuildIndex(abc, IndexKey({0, 1, 2}));
  SliceQuery q(AttributeSet(), AttributeSet::Of({0, 1, 2}));
  ExecutionStats stats;
  GroupedResult res = executor_.Execute(q, {1, 2, 3}, &stats);
  EXPECT_TRUE(SameResult(res, executor_.ExecuteNaive(q, {1, 2, 3})));
  EXPECT_LE(stats.rows_processed, 1u);
}

TEST_F(ExecutorTest, WholeSubcubeQuery) {
  catalog_.MaterializeView(AttributeSet::Of({1}));
  SliceQuery q(AttributeSet::Of({1}), AttributeSet());
  ExecutionStats stats;
  GroupedResult res = executor_.Execute(q, {}, &stats);
  EXPECT_TRUE(SameResult(res, executor_.ExecuteNaive(q, {})));
  EXPECT_FALSE(stats.used_raw);
  EXPECT_EQ(stats.rows_processed,
            catalog_.view(AttributeSet::Of({1})).num_rows());
}

TEST_F(ExecutorTest, PlannerPrefersCheapestPath) {
  // Materialize both a big and a small answering view; the small one wins.
  catalog_.MaterializeView(AttributeSet::Of({0, 1, 2}));
  catalog_.MaterializeView(AttributeSet::Of({0}));
  SliceQuery q(AttributeSet::Of({0}), AttributeSet());
  ExecutionStats stats;
  executor_.Execute(q, {}, &stats);
  EXPECT_EQ(stats.view, AttributeSet::Of({0}));
}

TEST_F(ExecutorTest, AllSliceQueriesAgreeWithNaive) {
  // Full sweep: materialize a few views + indexes, then check every slice
  // query shape with a couple of selection constants.
  catalog_.MaterializeView(AttributeSet::Of({0, 1, 2}));
  catalog_.MaterializeView(AttributeSet::Of({0, 1}));
  catalog_.MaterializeView(AttributeSet::Of({2}));
  catalog_.BuildIndex(AttributeSet::Of({0, 1, 2}), IndexKey({2, 1, 0}));
  catalog_.BuildIndex(AttributeSet::Of({0, 1}), IndexKey({1, 0}));

  CubeLattice lattice(SmallSchema());
  Workload all = AllSliceQueries(lattice);
  for (const WeightedQuery& wq : all.queries()) {
    std::vector<int> sel = wq.query.selection().ToVector();
    std::vector<uint32_t> values;
    for (int a : sel) {
      values.push_back(static_cast<uint32_t>(a + 1));  // arbitrary constants
    }
    GroupedResult fast = executor_.Execute(wq.query, values);
    GroupedResult naive = executor_.ExecuteNaive(wq.query, values);
    EXPECT_TRUE(SameResult(fast, naive))
        << wq.query.ToString({"a", "b", "c"});
  }
}

TEST_F(ExecutorTest, ExplainRanksPlans) {
  AttributeSet ab = AttributeSet::Of({0, 1});
  catalog_.MaterializeView(ab);
  catalog_.BuildIndex(ab, IndexKey({1, 0}));
  SliceQuery q(AttributeSet::Of({0}), AttributeSet::Of({1}));
  std::vector<Executor::PlanChoice> plans = executor_.Explain(q);
  // raw + view scan + index path.
  ASSERT_EQ(plans.size(), 3u);
  EXPECT_TRUE(plans[0].chosen);
  EXPECT_FALSE(plans[0].use_raw);
  EXPECT_EQ(plans[0].index, IndexKey({1, 0}));
  for (size_t i = 1; i < plans.size(); ++i) {
    EXPECT_GE(plans[i].estimated_cost, plans[i - 1].estimated_cost);
    EXPECT_FALSE(plans[i].chosen);
  }
  // The chosen plan agrees with what Execute actually uses.
  ExecutionStats stats;
  executor_.Execute(q, {2}, &stats);
  EXPECT_EQ(stats.view, plans[0].view);
  EXPECT_EQ(stats.index, plans[0].index);
  // The rendering mentions the index and the view.
  std::string text = executor_.ExplainString(q);
  EXPECT_NE(text.find("-> index I_ba on ab"), std::string::npos);
  EXPECT_NE(text.find("scan raw fact table"), std::string::npos);
}

TEST_F(ExecutorTest, ExplainOnEmptyCatalogOffersOnlyRaw) {
  SliceQuery q(AttributeSet::Of({0}), AttributeSet());
  std::vector<Executor::PlanChoice> plans = executor_.Explain(q);
  ASSERT_EQ(plans.size(), 1u);
  EXPECT_TRUE(plans[0].use_raw);
  EXPECT_TRUE(plans[0].chosen);
}

TEST_F(ExecutorTest, EmptySelectionResultIsEmpty) {
  // A selection value that never occurs yields an empty result.
  catalog_.MaterializeView(AttributeSet::Of({0, 1}));
  catalog_.BuildIndex(AttributeSet::Of({0, 1}), IndexKey({1, 0}));
  SliceQuery q(AttributeSet::Of({0}), AttributeSet::Of({1}));
  // b has cardinality 6; value 5 may exist, so instead use a fact table
  // where we know a missing value: filter on b = 5 after checking.
  GroupedResult fast = executor_.Execute(q, {5});
  GroupedResult naive = executor_.ExecuteNaive(q, {5});
  EXPECT_TRUE(SameResult(fast, naive));
}

// A selection value at or above its dimension's cardinality is caller
// input the engine cannot answer: TryExecute rejects it before planning,
// where an index probe would reach the key codec's abort.
TEST_F(ExecutorTest, TryExecuteRejectsOutOfRangeSelectionValue) {
  const AttributeSet ab = AttributeSet::Of({0, 1});
  catalog_.MaterializeView(ab);
  ASSERT_TRUE(catalog_.BuildIndex(ab, IndexKey({0, 1})).ok());
  // γ_b σ_a: the fat index on (a, b) is the chosen plan; a has 8 members.
  const SliceQuery b_by_a(AttributeSet::Of({1}), AttributeSet::Of({0}));
  GroupedResult out;
  ExecutionStats stats;
  ASSERT_TRUE(executor_.TryExecute(b_by_a, {7}, &out, &stats).ok());
  ASSERT_FALSE(stats.index.empty());
  EXPECT_EQ(executor_.TryExecute(b_by_a, {8}, &out).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ExecutorTest, OutOfRangeValueRejectedOnScanAndIndexPlans) {
  // γ_a σ_b with b's 6 members: first through a plain view scan, then
  // through an index on (b, a). Value 5 runs on both plans, 6 on neither.
  const AttributeSet ab = AttributeSet::Of({0, 1});
  const SliceQuery a_by_b(AttributeSet::Of({0}), AttributeSet::Of({1}));
  catalog_.MaterializeView(ab);
  GroupedResult out;
  for (bool indexed : {false, true}) {
    SCOPED_TRACE(indexed ? "index plan" : "scan plan");
    if (indexed) {
      ASSERT_TRUE(catalog_.BuildIndex(ab, IndexKey({1, 0})).ok());
    }
    ExecutionStats stats;
    ASSERT_TRUE(executor_.TryExecute(a_by_b, {5}, &out, &stats).ok());
    EXPECT_EQ(stats.index.empty(), !indexed);
    EXPECT_FALSE(stats.used_raw);
    const Status s = executor_.TryExecute(a_by_b, {6}, &out);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(s.message().find("out of range"), std::string::npos)
        << s.message();
  }
}

}  // namespace
}  // namespace olapidx
