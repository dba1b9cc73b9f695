#include "core/benefit_curve.h"

#include <gtest/gtest.h>

#include "core/advisor.h"
#include "core/r_greedy.h"
#include "data/example_graphs.h"
#include "data/tpcd.h"

namespace olapidx {
namespace {

TEST(BenefitCurveTest, TrajectoryMatchesResult) {
  QueryViewGraph g = Figure2Instance();
  SelectionResult r = RGreedy(g, kFigure2Budget, RGreedyOptions{.r = 2});
  std::vector<BenefitCurvePoint> curve = ComputeBenefitCurve(g, r);
  ASSERT_EQ(curve.size(), r.picks.size() + 1);
  EXPECT_EQ(curve.front().space, 0.0);
  EXPECT_NEAR(curve.front().tau, r.initial_cost, 1e-9);
  EXPECT_NEAR(curve.back().tau, r.final_cost, 1e-9);
  EXPECT_NEAR(curve.back().space, r.space_used, 1e-9);
  // τ never increases, space never decreases along the trajectory.
  for (size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LE(curve[i].tau, curve[i - 1].tau + 1e-9);
    EXPECT_GE(curve[i].space, curve[i - 1].space);
  }
}

TEST(BenefitCurveTest, KneeDetectionOnTpcd) {
  CubeSchema schema = TpcdSchema();
  CubeLattice lattice(schema);
  CubeGraphOptions opts;
  opts.raw_scan_penalty = 2.0;
  StatusOr<Advisor> advisor = Advisor::Create(
      schema, TpcdPaperSizes(), AllSliceQueries(lattice), opts);
  ASSERT_TRUE(advisor.ok()) << advisor.status().ToString();
  AdvisorConfig config;
  config.algorithm = Algorithm::kOneGreedy;
  config.space_budget = 81e6;  // effectively unbounded
  Recommendation rec = advisor->Recommend(config);
  std::vector<BenefitCurvePoint> curve =
      ComputeBenefitCurve(advisor->cube_graph().graph, rec.raw);
  // Example 2.1's law of diminishing returns: 95% of the total benefit is
  // reached within ~30M rows even though the full selection is larger.
  double knee = SpaceForBenefitFraction(curve, 0.95);
  EXPECT_LT(knee, 30e6);
  EXPECT_GT(knee, 5e6);
  // The full curve ends at 100%.
  EXPECT_NEAR(SpaceForBenefitFraction(curve, 1.0), curve.back().space,
              1e-6);
}

TEST(BenefitCurveTest, HalfBenefitBeforeFullBenefit) {
  QueryViewGraph g = Figure2Instance();
  SelectionResult r = RGreedy(g, 20.0, RGreedyOptions{.r = 2});
  std::vector<BenefitCurvePoint> curve = ComputeBenefitCurve(g, r);
  EXPECT_LE(SpaceForBenefitFraction(curve, 0.5),
            SpaceForBenefitFraction(curve, 0.99));
}

TEST(BenefitCurveDeathTest, BadFraction) {
  QueryViewGraph g = Figure2Instance();
  SelectionResult r = RGreedy(g, 3.0, RGreedyOptions{.r = 1});
  std::vector<BenefitCurvePoint> curve = ComputeBenefitCurve(g, r);
  EXPECT_DEATH(SpaceForBenefitFraction(curve, 0.0), "CHECK");
  EXPECT_DEATH(SpaceForBenefitFraction(curve, 1.5), "CHECK");
}

}  // namespace
}  // namespace olapidx
