// Tests for the update-aware extension: per-structure maintenance costs
// subtracted from benefit. With all costs zero the behaviour must be
// byte-identical to the paper's space-only model.

#include <gtest/gtest.h>

#include "core/advisor.h"
#include "core/inner_greedy.h"
#include "core/optimal.h"
#include "core/r_greedy.h"
#include "core/selection_state.h"
#include "data/example_graphs.h"
#include "data/tpcd.h"

namespace olapidx {
namespace {

TEST(MaintenanceTest, ZeroCostsReproducePaperModel) {
  QueryViewGraph g = Figure2Instance();
  // Explicitly set zeros (the default) and re-run the known traces.
  for (uint32_t v = 0; v < g.num_views(); ++v) {
    g.SetViewMaintenance(v, 0.0);
    for (int32_t k = 0; k < g.num_indexes(v); ++k) {
      g.SetIndexMaintenance(v, k, 0.0);
    }
  }
  EXPECT_NEAR(RGreedy(g, kFigure2Budget, {.r = 1}).Benefit(), 148.0, 1e-9);
  EXPECT_NEAR(RGreedy(g, kFigure2Budget, {.r = 2}).Benefit(), 206.0, 1e-9);
  EXPECT_NEAR(InnerLevelGreedy(g, kFigure2Budget).Benefit(), 346.0, 1e-9);
  EXPECT_NEAR(BranchAndBoundOptimal(g, kFigure2Budget).Benefit(), 264.0,
              1e-9);
}

TEST(MaintenanceTest, BenefitIsNetOfMaintenance) {
  QueryViewGraph g;
  uint32_t v = g.AddView("v", 1.0);
  uint32_t q = g.AddQuery("q", 100.0);
  g.AddViewEdge(q, v, 10.0);
  g.Finalize();
  g.SetViewMaintenance(v, 30.0);
  SelectionState state(&g);
  Candidate c{v, true, {}};
  EXPECT_NEAR(state.CandidateBenefit(c), 90.0 - 30.0, 1e-12);
  state.Apply(c);
  EXPECT_NEAR(state.TotalMaintenance(), 30.0, 1e-12);
  EXPECT_NEAR(state.TotalCost(), 10.0, 1e-12);   // τ excludes maintenance
  EXPECT_NEAR(state.TotalBenefit(), 60.0, 1e-12);  // net
}

TEST(MaintenanceTest, ExpensiveMaintenanceBlocksSelection) {
  QueryViewGraph g;
  uint32_t v = g.AddView("v", 1.0);
  uint32_t q = g.AddQuery("q", 100.0);
  g.AddViewEdge(q, v, 10.0);
  g.Finalize();
  g.SetViewMaintenance(v, 200.0);  // refresh costs more than it saves
  EXPECT_TRUE(RGreedy(g, 10.0, {.r = 1}).picks.empty());
  EXPECT_TRUE(InnerLevelGreedy(g, 10.0).picks.empty());
  SelectionResult opt = BranchAndBoundOptimal(g, 10.0);
  EXPECT_TRUE(opt.proven_optimal);
  EXPECT_TRUE(opt.picks.empty());
}

TEST(MaintenanceTest, MaintenanceShrinksSelections) {
  CubeSchema schema = TpcdSchema();
  CubeLattice lattice(schema);
  Workload workload = AllSliceQueries(lattice);
  ViewSizes sizes = TpcdPaperSizes();

  CubeGraphOptions base;
  base.raw_scan_penalty = 2.0;
  CubeGraphOptions updating = base;
  updating.maintenance_per_row = 5.0;  // heavy update traffic

  StatusOr<CubeGraph> g0 = TryBuildCubeGraph(schema, sizes, workload, base);
  ASSERT_TRUE(g0.ok()) << g0.status().ToString();
  StatusOr<CubeGraph> g1 = TryBuildCubeGraph(schema, sizes, workload, updating);
  ASSERT_TRUE(g1.ok()) << g1.status().ToString();
  SelectionResult r0 = InnerLevelGreedy(g0->graph, kTpcdExampleBudget);
  SelectionResult r1 = InnerLevelGreedy(g1->graph, kTpcdExampleBudget);
  // Under update pressure the advisor materializes less.
  EXPECT_LT(r1.space_used, r0.space_used);
  EXPECT_GT(r1.total_maintenance, 0.0);
  EXPECT_NEAR(r0.total_maintenance, 0.0, 1e-12);
  // Every selected structure must still pay for itself.
  EXPECT_GT(r1.Benefit(), 0.0);
}

TEST(MaintenanceTest, InnerBundleAccountsForIndexMaintenance) {
  // A view with one helpful and one maintenance-dominated index: the
  // grown bundle must exclude the bad index.
  QueryViewGraph g;
  uint32_t v = g.AddView("v", 1.0);
  int32_t good = g.AddIndex(v, "good", 1.0);
  int32_t bad = g.AddIndex(v, "bad", 1.0);
  uint32_t q0 = g.AddQuery("q0", 100.0);
  uint32_t q1 = g.AddQuery("q1", 100.0);
  uint32_t q2 = g.AddQuery("q2", 100.0);
  g.AddViewEdge(q0, v, 50.0);
  g.AddViewEdge(q1, v, 100.0);
  g.AddIndexEdge(q1, v, good, 10.0);
  g.AddViewEdge(q2, v, 100.0);
  g.AddIndexEdge(q2, v, bad, 10.0);
  g.Finalize();
  g.SetIndexMaintenance(v, bad, 500.0);

  SelectionResult r = InnerLevelGreedy(g, 100.0);
  for (const StructureRef& s : r.picks) {
    EXPECT_NE(g.StructureName(s), "bad(v)");
  }
  EXPECT_NEAR(r.Benefit(), 50.0 + 90.0, 1e-9);
}

TEST(MaintenanceTest, OptimalRespectsMaintenanceTradeoff) {
  // Two views: A saves 100 and costs 60 maintenance (net 40);
  //            B saves 50 with no maintenance (net 50). Budget fits one.
  QueryViewGraph g;
  uint32_t a = g.AddView("A", 1.0);
  uint32_t b = g.AddView("B", 1.0);
  uint32_t qa = g.AddQuery("qa", 200.0);
  uint32_t qb = g.AddQuery("qb", 200.0);
  g.AddViewEdge(qa, a, 100.0);
  g.AddViewEdge(qb, b, 150.0);
  g.Finalize();
  g.SetViewMaintenance(a, 60.0);
  SelectionResult opt = BranchAndBoundOptimal(g, 1.0);
  ASSERT_TRUE(opt.proven_optimal);
  ASSERT_EQ(opt.picks.size(), 1u);
  EXPECT_EQ(g.StructureName(opt.picks[0]), "B");
  EXPECT_NEAR(opt.Benefit(), 50.0, 1e-9);
}

}  // namespace
}  // namespace olapidx
