#include "core/r_greedy.h"

#include <cmath>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "data/example_graphs.h"

namespace olapidx {
namespace {

// A graph where the best choice is obvious: one strong view.
QueryViewGraph SimpleGraph() {
  QueryViewGraph g;
  uint32_t v0 = g.AddView("strong", 2.0);
  uint32_t v1 = g.AddView("weak", 2.0);
  uint32_t q0 = g.AddQuery("q0", 100.0);
  uint32_t q1 = g.AddQuery("q1", 100.0);
  g.AddViewEdge(q0, v0, 10.0);   // benefit 90
  g.AddViewEdge(q1, v1, 80.0);   // benefit 20
  g.Finalize();
  return g;
}

TEST(RGreedyTest, PicksByBenefitPerSpace) {
  QueryViewGraph g = SimpleGraph();
  SelectionResult r = OneGreedy(g, 2.0);
  ASSERT_EQ(r.picks.size(), 1u);
  EXPECT_EQ(g.StructureName(r.picks[0]), "strong");
  EXPECT_NEAR(r.Benefit(), 90.0, 1e-9);
  EXPECT_NEAR(r.space_used, 2.0, 1e-9);
  EXPECT_NEAR(r.initial_cost, 200.0, 1e-9);
  EXPECT_NEAR(r.final_cost, 110.0, 1e-9);
}

TEST(RGreedyTest, StopsWhenNothingBeneficial) {
  QueryViewGraph g = SimpleGraph();
  // Huge budget: picks both views, then stops (indexes don't exist).
  SelectionResult r = OneGreedy(g, 1e9);
  EXPECT_EQ(r.picks.size(), 2u);
  EXPECT_NEAR(r.Benefit(), 110.0, 1e-9);
  EXPECT_NEAR(r.space_used, 4.0, 1e-9);
}

TEST(RGreedyTest, ZeroBudgetSelectsNothing) {
  QueryViewGraph g = SimpleGraph();
  SelectionResult r = OneGreedy(g, 0.0);
  EXPECT_TRUE(r.picks.empty());
  EXPECT_NEAR(r.Benefit(), 0.0, 1e-12);
}

TEST(RGreedyTest, OneGreedyBlindToIndexOnlyViews) {
  // 1-greedy cannot start a view whose entire value lives in its indexes.
  QueryViewGraph g = OneGreedyTrapInstance(/*trap_benefit=*/1000.0,
                                           /*decoy_benefit=*/1.0);
  SelectionResult r1 = OneGreedy(g, 2.0);
  EXPECT_NEAR(r1.Benefit(), 2.0, 1e-9);  // two decoys

  SelectionResult r2 = RGreedy(g, 2.0, RGreedyOptions{.r = 2});
  EXPECT_NEAR(r2.Benefit(), 1000.0, 1e-9);  // {trap, I_trap}
  ASSERT_EQ(r2.picks.size(), 2u);
  EXPECT_TRUE(r2.picks[0].is_view());
  EXPECT_FALSE(r2.picks[1].is_view());
}

TEST(RGreedyTest, TrapRatioGoesToZero) {
  // The ratio 1-greedy/optimal can be made arbitrarily small (the r = 1
  // point of Figure 3).
  for (double trap : {10.0, 100.0, 10'000.0}) {
    QueryViewGraph g = OneGreedyTrapInstance(trap, 1.0);
    SelectionResult r1 = OneGreedy(g, 2.0);
    EXPECT_NEAR(r1.Benefit() / trap, 2.0 / trap, 1e-9);
  }
}

TEST(RGreedyTest, Figure2OneGreedyTrace) {
  QueryViewGraph g = Figure2Instance();
  SelectionResult r = OneGreedy(g, kFigure2Budget);
  // V3 (22) then its six 21-indexes: 22 + 6·21 = 148, exactly 7 units.
  EXPECT_NEAR(r.Benefit(), 148.0, 1e-9);
  EXPECT_NEAR(r.space_used, 7.0, 1e-9);
  ASSERT_EQ(r.picks.size(), 7u);
  EXPECT_EQ(g.StructureName(r.picks[0]), "V3");
}

TEST(RGreedyTest, Figure2TwoGreedyTrace) {
  QueryViewGraph g = Figure2Instance();
  SelectionResult r = RGreedy(g, kFigure2Budget, RGreedyOptions{.r = 2});
  // {V1,I11}=100, V3=22, then four junk indexes at 21: 206.
  EXPECT_NEAR(r.Benefit(), 206.0, 1e-9);
  EXPECT_NEAR(r.space_used, 7.0, 1e-9);
}

TEST(RGreedyTest, Figure2ThreeGreedyTrace) {
  QueryViewGraph g = Figure2Instance();
  SelectionResult r = RGreedy(g, kFigure2Budget, RGreedyOptions{.r = 3});
  // {V1,I11}=100, {V2,I21,I22}=82, then two 41-indexes: 264.
  EXPECT_NEAR(r.Benefit(), 264.0, 1e-9);
  EXPECT_NEAR(r.space_used, 7.0, 1e-9);
}

TEST(RGreedyTest, MonotoneInR) {
  QueryViewGraph g = Figure2Instance();
  double prev = -1.0;
  for (int r = 1; r <= 4; ++r) {
    SelectionResult res = RGreedy(g, kFigure2Budget, RGreedyOptions{.r = r});
    EXPECT_GE(res.Benefit(), prev - 1e-9) << "r=" << r;
    prev = res.Benefit();
  }
}

TEST(RGreedyTest, SubsetCapStillProducesValidResult) {
  QueryViewGraph g = Figure2Instance();
  SelectionResult capped = RGreedy(
      g, kFigure2Budget,
      RGreedyOptions{.r = 3, .max_subsets_per_view = 1});
  SelectionResult exact =
      RGreedy(g, kFigure2Budget, RGreedyOptions{.r = 3});
  EXPECT_GT(capped.Benefit(), 0.0);
  EXPECT_LE(capped.Benefit(), exact.Benefit() + 1e-9);
  EXPECT_LT(capped.candidates_evaluated, exact.candidates_evaluated);
}

TEST(RGreedyTest, PickBenefitsSumToTotalBenefit) {
  QueryViewGraph g = Figure2Instance();
  for (int r = 1; r <= 3; ++r) {
    SelectionResult res = RGreedy(g, kFigure2Budget, RGreedyOptions{.r = r});
    ASSERT_EQ(res.pick_benefits.size(), res.picks.size());
    double sum = 0.0;
    for (double b : res.pick_benefits) sum += b;
    EXPECT_NEAR(sum, res.Benefit(), 1e-6);
  }
}

TEST(RGreedyTest, IndexNeverPickedWithoutItsView) {
  QueryViewGraph g = Figure2Instance();
  for (int r = 1; r <= 3; ++r) {
    SelectionResult res = RGreedy(g, 1e9, RGreedyOptions{.r = r});
    std::vector<bool> view_seen(g.num_views(), false);
    for (const StructureRef& s : res.picks) {
      if (s.is_view()) {
        view_seen[s.view] = true;
      } else {
        EXPECT_TRUE(view_seen[s.view]);
      }
    }
  }
}

TEST(RGreedyTest, UnitSpaceOvershootBound) {
  // Theorem 5.1: with unit sizes the solution uses at most S + r - 1 space.
  QueryViewGraph g = Figure2Instance();
  for (int r = 1; r <= 4; ++r) {
    for (double budget : {1.0, 3.0, 5.0, 7.0, 11.0}) {
      SelectionResult res = RGreedy(g, budget, RGreedyOptions{.r = r});
      EXPECT_LE(res.space_used, budget + r - 1 + 1e-9)
          << "r=" << r << " S=" << budget;
    }
  }
}

TEST(LazyOneGreedyTest, MatchesEagerOnFigure2) {
  QueryViewGraph g = Figure2Instance();
  SelectionResult eager = OneGreedy(g, kFigure2Budget);
  SelectionResult lazy = RGreedy(
      g, kFigure2Budget,
      RGreedyOptions{.r = 1, .lazy_one_greedy = true});
  EXPECT_NEAR(lazy.Benefit(), eager.Benefit(), 1e-9);
  EXPECT_NEAR(lazy.final_cost, eager.final_cost, 1e-9);
  EXPECT_NEAR(lazy.space_used, eager.space_used, 1e-9);
}

TEST(LazyOneGreedyTest, MatchesEagerOnTrap) {
  QueryViewGraph g = OneGreedyTrapInstance(1000.0, 1.0);
  SelectionResult eager = OneGreedy(g, 2.0);
  SelectionResult lazy = RGreedy(
      g, 2.0, RGreedyOptions{.r = 1, .lazy_one_greedy = true});
  EXPECT_NEAR(lazy.Benefit(), eager.Benefit(), 1e-9);
}

TEST(LazyOneGreedyTest, EvaluatesFewerCandidatesOnLargeInstances) {
  // Build a graph with many views; lazy evaluation should do much less
  // work after the first stage.
  QueryViewGraph g;
  std::vector<uint32_t> queries;
  for (int q = 0; q < 50; ++q) {
    // Two-step concatenation sidesteps a GCC 12 -Werror=restrict false
    // positive on "literal" + std::to_string(...) at -O3 (PR 105329).
    std::string qname = "q";
    qname += std::to_string(q);
    queries.push_back(g.AddQuery(qname, 1000.0));
  }
  for (int v = 0; v < 60; ++v) {
    std::string vname = "v";
    vname += std::to_string(v);
    uint32_t view = g.AddView(vname, 1.0);
    // Each view helps a couple of queries by a view-specific amount.
    g.AddViewEdge(queries[static_cast<size_t>(v) % queries.size()], view,
                  1000.0 - 10.0 * (v + 1));
    g.AddViewEdge(
        queries[static_cast<size_t>(v * 7 + 3) % queries.size()], view,
        1000.0 - 5.0 * (v + 1));
  }
  g.Finalize();
  // Compare against the full-rescan (unmemoized) eager run: that is the
  // work the lazy heap is designed to avoid. The memoized eager run can
  // legitimately evaluate even fewer candidates than lazy.
  SelectionResult eager =
      RGreedy(g, 20.0, RGreedyOptions{.r = 1, .memoize = false});
  SelectionResult lazy = RGreedy(
      g, 20.0, RGreedyOptions{.r = 1, .lazy_one_greedy = true});
  EXPECT_NEAR(lazy.Benefit(), eager.Benefit(), 1e-9);
  EXPECT_EQ(lazy.picks.size(), eager.picks.size());
  EXPECT_LT(lazy.candidates_evaluated, eager.candidates_evaluated / 2);
  SelectionResult memoized = OneGreedy(g, 20.0);
  EXPECT_NEAR(memoized.Benefit(), eager.Benefit(), 1e-9);
  EXPECT_LT(memoized.candidates_evaluated, eager.candidates_evaluated);
  EXPECT_GT(memoized.stats.cache_hits, 0u);
}

TEST(RGreedyTest, InvalidConfigsAreRejectedNotFatal) {
  QueryViewGraph g = SimpleGraph();
  SelectionResult bad_r = RGreedy(g, 1.0, RGreedyOptions{.r = 0});
  EXPECT_FALSE(bad_r.completed);
  EXPECT_EQ(bad_r.status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(bad_r.picks.empty());
  SelectionResult bad_budget =
      RGreedy(g, -1.0, RGreedyOptions{.r = 1});
  EXPECT_EQ(bad_budget.status.code(), StatusCode::kInvalidArgument);
  SelectionResult nan_budget =
      RGreedy(g, std::nan(""), RGreedyOptions{.r = 1});
  EXPECT_EQ(nan_budget.status.code(), StatusCode::kInvalidArgument);
  for (bool lazy : {false, true}) {
    SelectionResult inf_budget =
        RGreedy(g, std::numeric_limits<double>::infinity(),
                RGreedyOptions{.r = 1, .lazy_one_greedy = lazy});
    EXPECT_EQ(inf_budget.status.code(), StatusCode::kInvalidArgument);
    EXPECT_TRUE(inf_budget.picks.empty());
  }
}

}  // namespace
}  // namespace olapidx
