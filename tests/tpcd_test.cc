#include "data/tpcd.h"

#include <gtest/gtest.h>

#include "core/advisor.h"
#include "core/cube_graph.h"

namespace olapidx {
namespace {

TEST(TpcdTest, PaperSizes) {
  ViewSizes sizes = TpcdPaperSizes();
  EXPECT_EQ(sizes.SizeOf(AttributeSet::Of({0, 1, 2})), 6e6);
  EXPECT_EQ(sizes.SizeOf(AttributeSet::Of({0, 1})), 0.8e6);
  EXPECT_EQ(sizes.SizeOf(AttributeSet::Of({0, 2})), 6e6);
  EXPECT_EQ(sizes.SizeOf(AttributeSet::Of({1, 2})), 6e6);
  EXPECT_EQ(sizes.SizeOf(AttributeSet::Of({0})), 0.2e6);
  EXPECT_EQ(sizes.SizeOf(AttributeSet::Of({1})), 0.01e6);
  EXPECT_EQ(sizes.SizeOf(AttributeSet::Of({2})), 0.1e6);
  EXPECT_EQ(sizes.SizeOf(AttributeSet()), 1.0);
}

TEST(TpcdTest, MaterializeEverythingIsAbout80MRows) {
  // Example 2.1: "To materialize all possible subcubes and indexes, we
  // would require space for around 80M rows."
  ViewSizes sizes = TpcdPaperSizes();
  double everything =
      sizes.TotalViewSpace() + sizes.TotalFatIndexSpace();
  EXPECT_NEAR(everything, 80e6, 2e6);
}

class TpcdSelectionTest : public ::testing::Test {
 protected:
  static CubeGraphOptions PaperOptions() {
    CubeGraphOptions opts;
    // Raw data is the normalized TPC-D schema: answering from it costs
    // join work, so scanning a materialized psc is strictly cheaper.
    opts.raw_scan_penalty = 2.0;
    return opts;
  }

  TpcdSelectionTest()
      : schema_(TpcdSchema()),
        sizes_(TpcdPaperSizes()),
        lattice_(schema_),
        advisor_(Advisor::Create(schema_, sizes_, AllSliceQueries(lattice_),
                                 PaperOptions())
                     .value()) {}

  Recommendation Run(Algorithm algo) {
    AdvisorConfig config;
    config.algorithm = algo;
    config.space_budget = kTpcdExampleBudget;
    config.r_greedy.r = 1;
    // Example 2.1's two-step divides the space equally and each step fits
    // within its allotment.
    config.two_step.index_fraction = 0.5;
    config.two_step.strict_fit = true;
    return advisor_.Recommend(config);
  }

  CubeSchema schema_;
  ViewSizes sizes_;
  CubeLattice lattice_;
  Advisor advisor_;
};

TEST_F(TpcdSelectionTest, ReproducesExample21Numbers) {
  // Example 2.1's punchline: integrating the steps improves the average
  // query cost by almost 40 percent. The paper reports 1.18M rows for the
  // two-step process and 0.74M for 1-greedy; we measure 1.18M and 0.71M.
  Recommendation two_step = Run(Algorithm::kTwoStep);
  Recommendation one_greedy = Run(Algorithm::kOneGreedy);
  EXPECT_NEAR(two_step.average_query_cost, 1.18e6, 0.05e6);
  EXPECT_NEAR(one_greedy.average_query_cost, 0.74e6, 0.06e6);
  double improvement =
      1.0 - one_greedy.average_query_cost / two_step.average_query_cost;
  EXPECT_GT(improvement, 0.35);
}

TEST_F(TpcdSelectionTest, OneGreedyMaterializesBaseView) {
  // The paper's 1-greedy trace includes psc; with raw data costing more
  // than a psc scan, greedy must materialize the base cube.
  Recommendation rec = Run(Algorithm::kOneGreedy);
  bool has_psc = false;
  for (const RecommendedStructure& s : rec.structures) {
    if (s.is_view() && s.view == AttributeSet::Of({0, 1, 2})) {
      has_psc = true;
    }
  }
  EXPECT_TRUE(has_psc);
}

TEST_F(TpcdSelectionTest, FinalCostsPenaltyInvariant) {
  // Once every query's chosen plan beats raw data, the final average cost
  // does not depend on the raw-scan penalty.
  double costs[2];
  int i = 0;
  for (double penalty : {1.5, 3.0}) {
    CubeGraphOptions opts;
    opts.raw_scan_penalty = penalty;
    StatusOr<Advisor> advisor = Advisor::Create(
        schema_, sizes_, AllSliceQueries(lattice_), opts);
    ASSERT_TRUE(advisor.ok()) << advisor.status().ToString();
    AdvisorConfig config;
    config.algorithm = Algorithm::kOneGreedy;
    config.space_budget = kTpcdExampleBudget;
    Recommendation rec = advisor->Recommend(config);
    for (const QueryPlan& plan : rec.plans) {
      EXPECT_FALSE(plan.use_raw);
    }
    costs[i++] = rec.average_query_cost;
  }
  EXPECT_NEAR(costs[0], costs[1], 1e-6 * costs[0]);
}

TEST_F(TpcdSelectionTest, OneGreedySpendsMostSpaceOnIndexes) {
  // The paper observes the best split here gives about three quarters of
  // the space to indexes.
  Recommendation rec = Run(Algorithm::kOneGreedy);
  double index_space = 0.0;
  for (const RecommendedStructure& s : rec.structures) {
    if (!s.is_view()) index_space += s.space;
  }
  EXPECT_GT(index_space / rec.space_used, 0.5);
}

TEST_F(TpcdSelectionTest, InnerLevelComparableToOneGreedy) {
  Recommendation inner = Run(Algorithm::kInnerLevel);
  Recommendation one = Run(Algorithm::kOneGreedy);
  // Inner-level must be at least as good as the best two-step and in the
  // same ballpark as 1-greedy on this instance.
  EXPECT_LT(inner.average_query_cost, 1.3 * one.average_query_cost);
}

TEST_F(TpcdSelectionTest, PlansCoverAllQueries) {
  Recommendation rec = Run(Algorithm::kOneGreedy);
  EXPECT_EQ(rec.plans.size(), 27u);
  for (const QueryPlan& plan : rec.plans) {
    EXPECT_GT(plan.estimated_cost, 0.0);
    EXPECT_LE(plan.estimated_cost, 6e6);
    if (!plan.use_raw) {
      EXPECT_TRUE(plan.query.AnswerableFrom(plan.view));
    }
  }
}

TEST_F(TpcdSelectionTest, DiminishingReturns) {
  // Example 2.1: the structures beyond ~25M rows provide virtually no
  // benefit — tripling the budget barely moves the average cost.
  Recommendation at_25 = Run(Algorithm::kOneGreedy);
  AdvisorConfig config;
  config.algorithm = Algorithm::kOneGreedy;
  config.space_budget = 81e6;
  Recommendation everything = advisor_.Recommend(config);
  EXPECT_LT(at_25.average_query_cost,
            1.10 * everything.average_query_cost);
}

TEST_F(TpcdSelectionTest, HruViewsOnlyWorseThanWithIndexes) {
  Recommendation hru = Run(Algorithm::kHruViewsOnly);
  Recommendation one = Run(Algorithm::kOneGreedy);
  EXPECT_GT(hru.average_query_cost, one.average_query_cost);
}

}  // namespace
}  // namespace olapidx
