#include "core/optimal.h"

#include <limits>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/guarantees.h"
#include "core/inner_greedy.h"
#include "core/r_greedy.h"
#include "data/example_graphs.h"

namespace olapidx {
namespace {

TEST(OptimalTest, Figure2OptimalAtBudget7) {
  QueryViewGraph g = Figure2Instance();
  SelectionResult r = BranchAndBoundOptimal(g, kFigure2Budget);
  EXPECT_TRUE(r.proven_optimal);
  // {V1, I11} + V2 + four 41-indexes = 100 + 164 = 264.
  EXPECT_NEAR(r.Benefit(), 264.0, 1e-9);
  EXPECT_LE(r.space_used, kFigure2Budget + 1e-9);
}

TEST(OptimalTest, Figure2OptimalAtBudget9) {
  QueryViewGraph g = Figure2Instance();
  SelectionResult r = BranchAndBoundOptimal(g, 9.0);
  EXPECT_TRUE(r.proven_optimal);
  // {V1, I11} + full V2 bundle = 100 + 246 = 346.
  EXPECT_NEAR(r.Benefit(), 346.0, 1e-9);
}

TEST(OptimalTest, NeverPicksIndexWithoutView) {
  QueryViewGraph g = Figure2Instance();
  SelectionResult r = BranchAndBoundOptimal(g, 5.0);
  std::vector<bool> has_view(g.num_views(), false);
  for (const StructureRef& s : r.picks) {
    if (s.is_view()) has_view[s.view] = true;
  }
  for (const StructureRef& s : r.picks) {
    if (!s.is_view()) {
      EXPECT_TRUE(has_view[s.view]);
    }
  }
}

TEST(OptimalTest, TrapInstanceOptimum) {
  QueryViewGraph g = OneGreedyTrapInstance(500.0, 1.0);
  SelectionResult r = BranchAndBoundOptimal(g, 2.0);
  EXPECT_TRUE(r.proven_optimal);
  EXPECT_NEAR(r.Benefit(), 500.0, 1e-9);
}

TEST(OptimalTest, NodeLimitReportsIncomplete) {
  QueryViewGraph g = Figure2Instance();
  SelectionResult r =
      BranchAndBoundOptimal(g, kFigure2Budget, OptimalOptions{.node_limit = 1});
  EXPECT_FALSE(r.proven_optimal);
  // The greedy seed still provides a valid (sub)selection.
  EXPECT_GE(r.Benefit(), 0.0);
}

// A negative or non-finite budget and an unfinalized graph are rejected,
// never aborted on.
TEST(OptimalTest, RejectsBadBudgetOrUnfinalizedGraph) {
  QueryViewGraph g = Figure2Instance();
  for (double budget : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity()}) {
    SelectionResult r = BranchAndBoundOptimal(g, budget);
    EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument) << budget;
    EXPECT_FALSE(r.completed);
    EXPECT_FALSE(r.proven_optimal);
    EXPECT_TRUE(r.picks.empty());
  }
  QueryViewGraph open;
  open.AddView("v", 1.0);
  EXPECT_EQ(BranchAndBoundOptimal(open, 10.0).status.code(),
            StatusCode::kFailedPrecondition);
}

// The bounds reject the same inputs with a Status, never an abort.
TEST(OptimalTest, BoundsRejectBadBudgetOrUnfinalizedGraph) {
  QueryViewGraph g = Figure2Instance();
  for (double budget : {-1.0, std::numeric_limits<double>::quiet_NaN()}) {
    StatusOr<double> bound = UpperBoundBenefit(g, budget);
    ASSERT_FALSE(bound.ok()) << budget;
    EXPECT_EQ(bound.status().code(), StatusCode::kInvalidArgument) << budget;
  }
  StatusOr<double> bound = UpperBoundBenefit(g, 7.0);
  StatusOr<double> perfect = PerfectBenefit(g);
  ASSERT_TRUE(bound.ok() && perfect.ok());
  EXPECT_GE(*bound, BranchAndBoundOptimal(g, 7.0).Benefit());
  EXPECT_LE(*bound, *perfect);

  QueryViewGraph open;
  open.AddView("v", 1.0);
  EXPECT_EQ(UpperBoundBenefit(open, 10.0).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(PerfectBenefit(open).status().code(),
            StatusCode::kFailedPrecondition);
}

// Random-instance property sweep: on every instance, optimal dominates all
// heuristics, and each heuristic respects its guarantee when compared at
// the space it actually used (Theorems 5.1 / 5.2).
class RandomInstanceTest : public ::testing::TestWithParam<uint64_t> {};

QueryViewGraph RandomGraph(uint64_t seed) {
  Pcg32 rng(seed);
  QueryViewGraph g;
  uint32_t n_views = 2 + rng.NextBounded(3);    // 2..4 views
  uint32_t n_queries = 3 + rng.NextBounded(5);  // 3..7 queries
  std::vector<uint32_t> queries;
  for (uint32_t q = 0; q < n_queries; ++q) {
    queries.push_back(
        g.AddQuery("q" + std::to_string(q), 100.0,
                   1.0 + rng.NextBounded(3)));
  }
  for (uint32_t v = 0; v < n_views; ++v) {
    uint32_t view = g.AddView("v" + std::to_string(v), 1.0);
    uint32_t n_idx = rng.NextBounded(4);  // 0..3 indexes
    std::vector<int32_t> idxs;
    for (uint32_t k = 0; k < n_idx; ++k) {
      idxs.push_back(
          g.AddIndex(view, "i" + std::to_string(v) + std::to_string(k),
                     1.0));
    }
    for (uint32_t q : queries) {
      if (rng.NextBounded(100) < 60) {
        double scan = 20.0 + rng.NextBounded(80);
        g.AddViewEdge(q, view, scan);
        for (int32_t k : idxs) {
          if (rng.NextBounded(100) < 50) {
            g.AddIndexEdge(q, view, k, 1.0 + rng.NextBounded(
                                                static_cast<uint32_t>(scan)));
          }
        }
      }
    }
  }
  g.Finalize();
  return g;
}

TEST_P(RandomInstanceTest, HeuristicsRespectTheirGuarantees) {
  QueryViewGraph g = RandomGraph(GetParam());
  // Sweep budgets: the theorems must hold at every S (all structures here
  // have unit size, the setting of Theorem 5.1).
  for (double budget : {1.0, 2.0, 4.0, 7.0}) {
    SelectionResult results[] = {
        RGreedy(g, budget, RGreedyOptions{.r = 1}),
        RGreedy(g, budget, RGreedyOptions{.r = 2}),
        RGreedy(g, budget, RGreedyOptions{.r = 3}),
        InnerLevelGreedy(g, budget),
    };
    const double guarantees[] = {0.0, RGreedyGuarantee(2),
                                 RGreedyGuarantee(3),
                                 InnerLevelGuarantee()};
    for (size_t i = 0; i < 4; ++i) {
      // Compare against the optimum allowed the same space the heuristic
      // actually used, as in the theorems.
      SelectionResult opt = BranchAndBoundOptimal(g, results[i].space_used);
      ASSERT_TRUE(opt.proven_optimal);
      EXPECT_GE(results[i].Benefit(),
                guarantees[i] * opt.Benefit() - 1e-6)
          << "algorithm " << i << " seed " << GetParam() << " S="
          << budget;
      EXPECT_LE(results[i].Benefit(), opt.Benefit() + 1e-6);
    }
  }
}

TEST_P(RandomInstanceTest, TheoremSpaceBounds) {
  QueryViewGraph g = RandomGraph(GetParam());
  for (double budget : {1.0, 3.0, 6.0}) {
    for (int r = 1; r <= 3; ++r) {
      SelectionResult res = RGreedy(g, budget, RGreedyOptions{.r = r});
      // Theorem 5.1 (unit sizes): at most S + r - 1 space.
      EXPECT_LE(res.space_used, budget + r - 1 + 1e-9);
    }
    // Theorem 5.2: inner-level uses at most 2S.
    EXPECT_LE(InnerLevelGreedy(g, budget).space_used, 2 * budget + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomInstanceTest,
                         ::testing::Range<uint64_t>(1, 41));

}  // namespace
}  // namespace olapidx
