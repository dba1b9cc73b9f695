#include "core/two_step.h"

#include <limits>

#include <gtest/gtest.h>

#include "core/r_greedy.h"
#include "data/example_graphs.h"

namespace olapidx {
namespace {

// Graph with a strong view and a strong index on it.
QueryViewGraph ViewAndIndexGraph() {
  QueryViewGraph g;
  uint32_t v = g.AddView("v", 2.0);
  int32_t idx = g.AddIndex(v, "idx", 2.0);
  uint32_t q0 = g.AddQuery("q0", 100.0);
  uint32_t q1 = g.AddQuery("q1", 100.0);
  g.AddViewEdge(q0, v, 10.0);
  g.AddViewEdge(q1, v, 100.0);
  g.AddIndexEdge(q1, v, idx, 5.0);
  g.Finalize();
  return g;
}

TEST(HruViewGreedyTest, NeverPicksIndexes) {
  QueryViewGraph g = ViewAndIndexGraph();
  SelectionResult r = HruViewGreedy(g, 100.0);
  for (const StructureRef& s : r.picks) {
    EXPECT_TRUE(s.is_view());
  }
  EXPECT_NEAR(r.Benefit(), 90.0, 1e-9);  // only the view's scan benefit
}

TEST(HruViewGreedyTest, StrictFitSkipsOversizedViews) {
  QueryViewGraph g;
  uint32_t big = g.AddView("big", 10.0);
  uint32_t small = g.AddView("small", 1.0);
  uint32_t q0 = g.AddQuery("q0", 100.0);
  uint32_t q1 = g.AddQuery("q1", 100.0);
  g.AddViewEdge(q0, big, 1.0);    // benefit 99, ratio 9.9
  g.AddViewEdge(q1, small, 50.0);  // benefit 50, ratio 50
  g.Finalize();
  // Budget 5 with strict fit: big (space 10) never fits; small picked.
  SelectionResult strict = HruViewGreedy(g, 5.0, /*strict_fit=*/true);
  EXPECT_NEAR(strict.space_used, 1.0, 1e-9);
  EXPECT_NEAR(strict.Benefit(), 50.0, 1e-9);
  // Default HRU semantics: small first (better ratio), then the final
  // pick may overshoot.
  SelectionResult loose = HruViewGreedy(g, 5.0, /*strict_fit=*/false);
  EXPECT_NEAR(loose.space_used, 11.0, 1e-9);
  EXPECT_NEAR(loose.Benefit(), 149.0, 1e-9);
}

TEST(TwoStepTest, SplitsBudgetBetweenViewsAndIndexes) {
  QueryViewGraph g = ViewAndIndexGraph();
  SelectionResult r = TwoStep(g, 4.0, TwoStepOptions{.index_fraction = 0.5});
  // Stage 1 (budget 2): picks the view. Stage 2 (budget 2): its index.
  ASSERT_EQ(r.picks.size(), 2u);
  EXPECT_TRUE(r.picks[0].is_view());
  EXPECT_FALSE(r.picks[1].is_view());
  EXPECT_NEAR(r.Benefit(), 90.0 + 95.0, 1e-9);
}

TEST(TwoStepTest, ZeroIndexFractionEqualsViewOnlyGreedy) {
  QueryViewGraph g = Figure2Instance();
  SelectionResult two = TwoStep(g, kFigure2Budget,
                                TwoStepOptions{.index_fraction = 0.0});
  SelectionResult hru = HruViewGreedy(g, kFigure2Budget);
  EXPECT_NEAR(two.Benefit(), hru.Benefit(), 1e-9);
  EXPECT_EQ(two.picks.size(), hru.picks.size());
}

TEST(TwoStepTest, AllIndexFractionSelectsNothing) {
  // With no view budget there are no views, hence no legal indexes.
  QueryViewGraph g = Figure2Instance();
  SelectionResult r = TwoStep(g, kFigure2Budget,
                              TwoStepOptions{.index_fraction = 1.0});
  EXPECT_TRUE(r.picks.empty());
  EXPECT_NEAR(r.Benefit(), 0.0, 1e-12);
}

TEST(TwoStepTest, OneStepBeatsTwoStepOnFigure2) {
  // The paper's central claim: integrating the steps wins.
  QueryViewGraph g = Figure2Instance();
  SelectionResult two = TwoStep(g, kFigure2Budget,
                                TwoStepOptions{.index_fraction = 0.5});
  SelectionResult one = RGreedy(g, kFigure2Budget, RGreedyOptions{.r = 3});
  EXPECT_GT(one.Benefit(), two.Benefit());
}

TEST(TwoStepTest, IndexStageChargesOnlyIndexBudget) {
  // Views consume their own budget; the index stage its own.
  QueryViewGraph g = Figure2Instance();
  SelectionResult r = TwoStep(g, 8.0, TwoStepOptions{.index_fraction = 0.5});
  // View stage (budget 4): V3 (22), V1 (0 benefit → never picked),
  // so views picked have positive benefit only.
  double view_space = 0.0, index_space = 0.0;
  for (const StructureRef& s : r.picks) {
    if (s.is_view()) {
      view_space += g.view_space(s.view);
    } else {
      index_space += g.index_space(s.view, s.index);
    }
  }
  EXPECT_EQ(view_space + index_space, r.space_used);
  // The loose stage semantics allow each stage to overshoot by at most the
  // final pick (unit sizes here: exactly reaching its budget's ceiling).
  EXPECT_LE(view_space, 4.0 + 1.0);
  EXPECT_LE(index_space, 4.0 + 1.0);
}

TEST(TwoStepTest, StrictFitNeverOvershoots) {
  QueryViewGraph g = Figure2Instance();
  for (double frac : {0.25, 0.5, 0.75}) {
    SelectionResult r =
        TwoStep(g, 6.0, TwoStepOptions{.index_fraction = frac,
                                       .strict_fit = true});
    EXPECT_LE(r.space_used, 6.0 + 1e-9);
  }
}

// A negative or non-finite budget is an InvalidArgument for both
// baselines, not an abort or (NaN) a run with no budget at all; so is a
// two-step index fraction outside [0, 1].
TEST(TwoStepTest, RejectsBadBudgetOrIndexFraction) {
  QueryViewGraph g = Figure2Instance();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double budget : {-1.0, nan, inf}) {
    SelectionResult views = HruViewGreedy(g, budget);
    EXPECT_EQ(views.status.code(), StatusCode::kInvalidArgument) << budget;
    EXPECT_FALSE(views.completed);
    EXPECT_TRUE(views.picks.empty());
    SelectionResult two = TwoStep(g, budget, TwoStepOptions{});
    EXPECT_EQ(two.status.code(), StatusCode::kInvalidArgument) << budget;
    EXPECT_TRUE(two.picks.empty());
  }
  for (double fraction : {2.0, -0.5, nan}) {
    SelectionResult r =
        TwoStep(g, kFigure2Budget, TwoStepOptions{.index_fraction = fraction});
    EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument) << fraction;
    EXPECT_FALSE(r.completed);
    EXPECT_TRUE(r.picks.empty());
  }
}

TEST(TwoStepTest, RejectsAnUnfinalizedGraph) {
  QueryViewGraph g;
  g.AddView("v", 1.0);
  EXPECT_EQ(HruViewGreedy(g, 10.0).status.code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(TwoStep(g, 10.0, TwoStepOptions{}).status.code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace olapidx
