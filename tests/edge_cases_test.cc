// Edge cases and robustness: degenerate graphs, boundary budgets,
// single-dimension cubes, and malformed-input handling that the main
// suites do not reach.

#include <gtest/gtest.h>

#include "core/advisor.h"
#include "core/inner_greedy.h"
#include "core/optimal.h"
#include "core/r_greedy.h"
#include "core/serialize.h"
#include "core/two_step.h"
#include "data/example_graphs.h"
#include "data/synthetic.h"
#include "workload/query_log.h"

namespace olapidx {
namespace {

TEST(EdgeCaseTest, GraphWithNoQueries) {
  QueryViewGraph g;
  g.AddView("v", 1.0);
  g.Finalize();
  EXPECT_TRUE(OneGreedy(g, 10.0).picks.empty());
  EXPECT_TRUE(InnerLevelGreedy(g, 10.0).picks.empty());
  EXPECT_TRUE(BranchAndBoundOptimal(g, 10.0).picks.empty());
  EXPECT_EQ(g.DefaultTotalCost(), 0.0);
}

TEST(EdgeCaseTest, GraphWithNoViews) {
  QueryViewGraph g;
  g.AddQuery("q", 100.0);
  g.Finalize();
  SelectionResult r = InnerLevelGreedy(g, 10.0);
  EXPECT_TRUE(r.picks.empty());
  EXPECT_EQ(r.final_cost, 100.0);
}

TEST(EdgeCaseTest, QueryWithNoEdges) {
  // A query nothing can answer stays at its default cost.
  QueryViewGraph g;
  uint32_t v = g.AddView("v", 1.0);
  uint32_t q0 = g.AddQuery("answerable", 100.0);
  g.AddQuery("orphan", 50.0);
  g.AddViewEdge(q0, v, 10.0);
  g.Finalize();
  SelectionResult r = OneGreedy(g, 10.0);
  EXPECT_NEAR(r.final_cost, 10.0 + 50.0, 1e-12);
}

TEST(EdgeCaseTest, BudgetExactlyOneStructure) {
  QueryViewGraph g;
  uint32_t v = g.AddView("v", 4.0);
  uint32_t q = g.AddQuery("q", 100.0);
  g.AddViewEdge(q, v, 10.0);
  g.Finalize();
  // Budget equals the view's space: greedy picks it (strictly-under test
  // happens before the pick).
  SelectionResult r = OneGreedy(g, 4.0);
  EXPECT_EQ(r.picks.size(), 1u);
  EXPECT_NEAR(r.space_used, 4.0, 1e-12);
  // A hair less: still picks (HRU semantics allow the final overshoot).
  SelectionResult r2 = OneGreedy(g, 3.999);
  EXPECT_EQ(r2.picks.size(), 1u);
}

TEST(EdgeCaseTest, SingleDimensionCube) {
  SyntheticCube cube = UniformSyntheticCube(1, 50, 0.5);
  CubeLattice lattice(cube.schema);
  EXPECT_EQ(lattice.num_views(), 2u);
  Workload w = AllSliceQueries(lattice);
  EXPECT_EQ(w.size(), 3u);  // 3^1
  CubeGraphOptions opts;
  opts.raw_scan_penalty = 2.0;
  StatusOr<CubeGraph> cg = TryBuildCubeGraph(cube.schema, cube.sizes, w, opts);
  ASSERT_TRUE(cg.ok()) << cg.status().ToString();
  // Structures: apex + base view + 1 fat index.
  EXPECT_EQ(cg->graph.num_structures(), 3u);
  SelectionResult r = InnerLevelGreedy(cg->graph, 1e9);
  SelectionResult opt = BranchAndBoundOptimal(cg->graph, r.space_used);
  ASSERT_TRUE(opt.proven_optimal);
  EXPECT_NEAR(r.Benefit(), opt.Benefit(), 1e-9);
}

TEST(EdgeCaseTest, TiedCandidatesDeterministic) {
  // Two identical views: greedy must pick deterministically (first id).
  QueryViewGraph g;
  uint32_t v0 = g.AddView("v0", 1.0);
  uint32_t v1 = g.AddView("v1", 1.0);
  uint32_t q0 = g.AddQuery("q0", 100.0);
  uint32_t q1 = g.AddQuery("q1", 100.0);
  g.AddViewEdge(q0, v0, 10.0);
  g.AddViewEdge(q1, v1, 10.0);
  g.Finalize();
  SelectionResult a = OneGreedy(g, 1.0);
  SelectionResult b = OneGreedy(g, 1.0);
  ASSERT_EQ(a.picks.size(), 1u);
  EXPECT_EQ(a.picks[0].view, v0);
  EXPECT_TRUE(a.picks[0] == b.picks[0]);
}

TEST(EdgeCaseTest, TwoStepOnIndexlessGraph) {
  QueryViewGraph g;
  uint32_t v = g.AddView("v", 1.0);
  uint32_t q = g.AddQuery("q", 100.0);
  g.AddViewEdge(q, v, 10.0);
  g.Finalize();
  SelectionResult r =
      TwoStep(g, 2.0, TwoStepOptions{.index_fraction = 0.5});
  EXPECT_EQ(r.picks.size(), 1u);
  EXPECT_NEAR(r.Benefit(), 90.0, 1e-12);
}

TEST(EdgeCaseTest, FourGreedyOnFigure2MatchesThreeGreedy) {
  // On the reconstruction, 4-greedy finds the same optimum as 3-greedy
  // (the bigger bundles don't change the budget-7 outcome).
  QueryViewGraph g = Figure2Instance();
  SelectionResult four = RGreedy(g, kFigure2Budget, RGreedyOptions{.r = 4});
  EXPECT_NEAR(four.Benefit(), 264.0, 1e-9);
}

TEST(EdgeCaseTest, SerializeGarbageNeverCrashes) {
  CubeSchema schema({Dimension{"a", 2}, Dimension{"b", 2}});
  const char* inputs[] = {
      "",
      "\n\n\n",
      "olapidx-design v1",
      "olapidx-design v1\nview",
      "olapidx-design v1\nindex a :",
      "olapidx-design v1\nindex : a",
      "olapidx-sizes v1\nsize a\n",
      "olapidx-design v2\nview a\n",
      "view a\nolapidx-design v1\n",
      "olapidx-design v1\nview a,a\n",
  };
  for (const char* text : inputs) {
    // Must reject (or accept) without crashing; never abort.
    (void)ParseDesign(text, schema);
    (void)ParseViewSizes(text, schema);
    (void)ParseCheckpoint(text, schema);
  }
}

TEST(EdgeCaseTest, QueryLogGarbageNeverCrashes) {
  CubeSchema schema({Dimension{"a", 2}, Dimension{"b", 2}});
  const char* inputs[] = {
      ";;;", "a;b;c;d", "a,b ; a ; 1", "; ;", "a ; b ; 1e999",
      "a ; b ; nan",
  };
  for (const char* text : inputs) {
    Workload w;
    std::string error;
    ParseQueryLog(text, schema, &w, &error);  // must not crash
  }
}

TEST(EdgeCaseTest, WorkloadNormalizeZeroTotalDies) {
  Workload w;
  w.Add(SliceQuery(AttributeSet::Of({0}), AttributeSet()), 0.0);
  EXPECT_DEATH(w.Normalize(), "CHECK");
}

TEST(EdgeCaseTest, AdvisorWithSingleQueryWorkload) {
  SyntheticCube cube = UniformSyntheticCube(3, 20, 0.1);
  Workload w;
  w.Add(SliceQuery(AttributeSet::Of({0}), AttributeSet::Of({1})), 1.0);
  CubeGraphOptions opts;
  opts.raw_scan_penalty = 2.0;
  StatusOr<Advisor> advisor = Advisor::Create(cube.schema, cube.sizes, w, opts);
  ASSERT_TRUE(advisor.ok()) << advisor.status().ToString();
  AdvisorConfig config;
  config.algorithm = Algorithm::kInnerLevel;
  config.space_budget = cube.sizes.TotalViewSpace();
  Recommendation rec = advisor->Recommend(config);
  ASSERT_EQ(rec.plans.size(), 1u);
  EXPECT_FALSE(rec.plans[0].use_raw);
  // The single query should be answered at (near) its cheapest possible
  // cost: view {0,1} with a selection-prefix index.
  EXPECT_LT(rec.plans[0].estimated_cost,
            cube.sizes.SizeOf(AttributeSet::Of({0, 1})));
}

}  // namespace
}  // namespace olapidx
