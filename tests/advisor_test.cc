#include "core/advisor.h"

#include <limits>

#include <gtest/gtest.h>

#include "core/guarantees.h"
#include "data/synthetic.h"

namespace olapidx {
namespace {

class AdvisorTest : public ::testing::Test {
 protected:
  AdvisorTest()
      : cube_(UniformSyntheticCube(/*n=*/3, /*cardinality=*/100,
                                   /*sparsity=*/0.01)),
        lattice_(cube_.schema),
        advisor_(Advisor::Create(cube_.schema, cube_.sizes,
                                 AllSliceQueries(lattice_))
                     .value()) {}

  SyntheticCube cube_;
  CubeLattice lattice_;
  Advisor advisor_;
};

TEST_F(AdvisorTest, RecommendationIsConsistent) {
  AdvisorConfig config;
  config.algorithm = Algorithm::kInnerLevel;
  config.space_budget = cube_.sizes.TotalViewSpace() * 0.5;
  Recommendation rec = advisor_.Recommend(config);

  EXPECT_FALSE(rec.structures.empty());
  double space = 0.0;
  for (const RecommendedStructure& s : rec.structures) space += s.space;
  EXPECT_NEAR(space, rec.space_used, 1e-6);
  EXPECT_NEAR(rec.space_used, rec.raw.space_used, 1e-6);
  EXPECT_LT(rec.average_query_cost, rec.initial_average_cost);

  // Average query cost recomputed from per-query plans must equal the
  // algorithm's τ / total frequency.
  double total = 0.0, freq = 0.0;
  for (size_t i = 0; i < rec.plans.size(); ++i) {
    total += rec.plans[i].estimated_cost *
             advisor_.cube_graph().graph.query_frequency(
                 static_cast<uint32_t>(i));
    freq += advisor_.cube_graph().graph.query_frequency(
        static_cast<uint32_t>(i));
  }
  EXPECT_NEAR(total / freq, rec.average_query_cost,
              1e-6 * rec.average_query_cost);
}

TEST_F(AdvisorTest, AllAlgorithmsRun) {
  for (Algorithm algo :
       {Algorithm::kOneGreedy, Algorithm::kRGreedy, Algorithm::kInnerLevel,
        Algorithm::kTwoStep, Algorithm::kHruViewsOnly}) {
    AdvisorConfig config;
    config.algorithm = algo;
    config.space_budget = cube_.sizes.TotalViewSpace() * 0.3;
    config.r_greedy.r = 2;
    Recommendation rec = advisor_.Recommend(config);
    EXPECT_LE(rec.average_query_cost, rec.initial_average_cost)
        << AlgorithmName(algo);
  }
}

TEST_F(AdvisorTest, OptimalDominatesGreedyAtSameSpace) {
  AdvisorConfig greedy_config;
  greedy_config.algorithm = Algorithm::kRGreedy;
  greedy_config.r_greedy.r = 2;
  greedy_config.space_budget = cube_.sizes.TotalViewSpace() * 0.2;
  Recommendation greedy = advisor_.Recommend(greedy_config);

  AdvisorConfig opt_config;
  opt_config.algorithm = Algorithm::kOptimal;
  opt_config.space_budget = greedy.space_used;
  Recommendation optimal = advisor_.Recommend(opt_config);

  ASSERT_TRUE(optimal.raw.proven_optimal);
  EXPECT_LE(optimal.average_query_cost,
            greedy.average_query_cost + 1e-6);
  // Theorem 5.1 bound for r = 2.
  EXPECT_GE(greedy.raw.Benefit(),
            RGreedyGuarantee(2) * optimal.raw.Benefit() - 1e-6);
}

// A negative or non-finite budget, or a two-step index fraction outside
// [0, 1], is an InvalidArgument for every algorithm: the branch-and-bound
// solver and two-step used to abort on them.
TEST_F(AdvisorTest, BadBudgetOrIndexFractionIsInvalidArgument) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (Algorithm algo :
       {Algorithm::kOneGreedy, Algorithm::kRGreedy, Algorithm::kInnerLevel,
        Algorithm::kTwoStep, Algorithm::kHruViewsOnly, Algorithm::kOptimal}) {
    SCOPED_TRACE(AlgorithmName(algo));
    for (double budget : {-1.0, nan, inf}) {
      AdvisorConfig config;
      config.algorithm = algo;
      config.space_budget = budget;
      Recommendation rec = advisor_.Recommend(config);
      EXPECT_EQ(rec.status.code(), StatusCode::kInvalidArgument) << budget;
      EXPECT_FALSE(rec.completed);
      EXPECT_TRUE(rec.structures.empty());
      EXPECT_EQ(rec.graph_fingerprint, 0u);
    }
    for (double fraction : {2.0, -0.5, nan}) {
      AdvisorConfig config;
      config.algorithm = algo;
      config.space_budget = cube_.sizes.TotalViewSpace() * 0.3;
      config.two_step.index_fraction = fraction;
      EXPECT_EQ(advisor_.Recommend(config).status.code(),
                StatusCode::kInvalidArgument)
          << fraction;
    }
  }
}

TEST(AdvisorNamesTest, AlgorithmNames) {
  EXPECT_STREQ(AlgorithmName(Algorithm::kOneGreedy), "1-greedy");
  EXPECT_STREQ(AlgorithmName(Algorithm::kInnerLevel),
               "inner-level greedy");
  EXPECT_STREQ(AlgorithmName(Algorithm::kOptimal),
               "branch-and-bound optimal");
}

TEST(GuaranteesTest, PaperValues) {
  // Figure 3's anchor points.
  EXPECT_NEAR(RGreedyGuarantee(1), 0.0, 1e-12);
  EXPECT_NEAR(RGreedyGuarantee(2), 0.39, 0.005);
  EXPECT_NEAR(RGreedyGuarantee(3), 0.49, 0.005);
  EXPECT_NEAR(RGreedyGuarantee(4), 0.53, 0.005);
  EXPECT_NEAR(RGreedyGuarantee(1000), 1.0 - std::exp(-1.0), 1e-3);
  EXPECT_NEAR(InnerLevelGuarantee(), 0.467, 0.005);
  EXPECT_NEAR(HruGuarantee(), 0.632, 0.001);
  // Monotone increasing in r, inner-level between 2- and 3-greedy.
  EXPECT_GT(InnerLevelGuarantee(), RGreedyGuarantee(2));
  EXPECT_LT(InnerLevelGuarantee(), RGreedyGuarantee(3));
}

TEST(AdvisorCreateTest, SurfacesDimensionLimitAsStatus) {
  SyntheticCube cube = UniformSyntheticCube(9, 10, 0.5);
  Workload w;
  w.Add(SliceQuery(AttributeSet::Of({0}), AttributeSet()));
  StatusOr<Advisor> advisor = Advisor::Create(cube.schema, cube.sizes, w);
  ASSERT_FALSE(advisor.ok());
  EXPECT_EQ(advisor.status().code(), StatusCode::kInvalidArgument);
}

// Create builds the graph TryBuildCubeGraph builds, and Recommend selects
// on it what the algorithm selects on that graph directly.
TEST(AdvisorCreateTest, BuildsAndRecommendsLikeItsGraph) {
  SyntheticCube cube = UniformSyntheticCube(3, 100, 0.01);
  CubeLattice lattice(cube.schema);
  Workload workload = AllSliceQueries(lattice);
  StatusOr<Advisor> created =
      Advisor::Create(cube.schema, cube.sizes, workload);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  AdvisorConfig config;
  config.algorithm = Algorithm::kInnerLevel;
  config.space_budget = cube.sizes.TotalViewSpace() * 0.5;
  Recommendation via_create = created->Recommend(config);
  StatusOr<CubeGraph> direct =
      TryBuildCubeGraph(cube.schema, cube.sizes, workload);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  EXPECT_EQ(created->graph_fingerprint(), direct->graph.Fingerprint());
  SelectionResult via_graph =
      InnerLevelGreedy(direct->graph, config.space_budget);
  ASSERT_TRUE(via_create.status.ok());
  ASSERT_TRUE(via_graph.status.ok());
  EXPECT_EQ(via_create.space_used, via_graph.space_used);
  EXPECT_EQ(via_create.average_query_cost, via_graph.AverageQueryCost());
  ASSERT_EQ(via_create.structures.size(), via_graph.picks.size());
  for (size_t i = 0; i < via_create.structures.size(); ++i) {
    EXPECT_EQ(via_create.structures[i].name,
              direct->graph.StructureName(via_graph.picks[i]));
  }
}

}  // namespace
}  // namespace olapidx
