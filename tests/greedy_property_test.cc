// Structural properties of the greedy algorithms on cube-derived graphs:
// budget monotonicity, the prefix property of deterministic greedy,
// space-accounting identities, and the fat-pruning equivalence.

#include <gtest/gtest.h>

#include "core/cube_graph.h"
#include "core/inner_greedy.h"
#include "core/optimal.h"
#include "core/r_greedy.h"
#include "core/selection_state.h"
#include "core/two_step.h"
#include "data/synthetic.h"
#include "workload/workload.h"

namespace olapidx {
namespace {

class GreedyPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  GreedyPropertyTest() {
    SyntheticCube cube =
        RandomSyntheticCube(3, 5, 500, 0.05, GetParam());
    CubeLattice lattice(cube.schema);
    CubeGraphOptions opts;
    opts.raw_scan_penalty = 2.0;
    cube_ = std::make_unique<CubeGraph>(
        TryBuildCubeGraph(cube.schema, cube.sizes, AllSliceQueries(lattice),
                          opts)
            .value());
    total_space_ = cube.sizes.TotalViewSpace() +
                   cube.sizes.TotalFatIndexSpace();
  }

  std::unique_ptr<CubeGraph> cube_;
  double total_space_ = 0.0;
};

TEST_P(GreedyPropertyTest, BenefitMonotoneInBudget) {
  for (int algo = 0; algo < 3; ++algo) {
    double prev = -1.0;
    for (double frac : {0.01, 0.05, 0.15, 0.4, 1.0}) {
      double budget = frac * total_space_;
      SelectionResult r =
          algo == 0   ? RGreedy(cube_->graph, budget, {.r = 1})
          : algo == 1 ? RGreedy(cube_->graph, budget, {.r = 2})
                      : InnerLevelGreedy(cube_->graph, budget);
      EXPECT_GE(r.Benefit(), prev - 1e-6)
          << "algo " << algo << " frac " << frac;
      prev = r.Benefit();
    }
  }
}

TEST_P(GreedyPropertyTest, SmallerBudgetSelectsPrefix) {
  // Deterministic greedy makes identical stage decisions until the budget
  // cuts it off, so the small-budget pick list is a prefix of the larger.
  SelectionResult small = RGreedy(cube_->graph, 0.05 * total_space_,
                                  RGreedyOptions{.r = 2});
  SelectionResult large = RGreedy(cube_->graph, 0.5 * total_space_,
                                  RGreedyOptions{.r = 2});
  ASSERT_LE(small.picks.size(), large.picks.size());
  for (size_t i = 0; i < small.picks.size(); ++i) {
    EXPECT_TRUE(small.picks[i] == large.picks[i]) << "position " << i;
  }
}

TEST_P(GreedyPropertyTest, SpaceAccountingMatchesPicks) {
  for (double frac : {0.05, 0.3}) {
    SelectionResult r =
        InnerLevelGreedy(cube_->graph, frac * total_space_);
    double space = 0.0;
    for (const StructureRef& s : r.picks) {
      space += cube_->graph.structure_space(s);
    }
    EXPECT_NEAR(space, r.space_used, 1e-6);
  }
}

TEST_P(GreedyPropertyTest, FinalCostMatchesReplayedPicks) {
  SelectionResult r = RGreedy(cube_->graph, 0.2 * total_space_,
                              RGreedyOptions{.r = 2});
  SelectionState replay(&cube_->graph);
  for (const StructureRef& s : r.picks) replay.ApplyStructure(s);
  EXPECT_NEAR(replay.TotalCost(), r.final_cost, 1e-6);
  EXPECT_NEAR(replay.SpaceUsed(), r.space_used, 1e-6);
}

TEST_P(GreedyPropertyTest, NoDuplicatePicks) {
  SelectionResult r = InnerLevelGreedy(cube_->graph, total_space_);
  for (size_t i = 0; i < r.picks.size(); ++i) {
    for (size_t j = i + 1; j < r.picks.size(); ++j) {
      EXPECT_FALSE(r.picks[i] == r.picks[j]);
    }
  }
}

TEST_P(GreedyPropertyTest, FatPruningLosesNothing) {
  // Rebuild the graph with all ordered-subset indexes; selection benefit
  // must match the fat-only run (Section 4.2.2).
  SyntheticCube cube = RandomSyntheticCube(3, 5, 500, 0.05, GetParam());
  CubeLattice lattice(cube.schema);
  CubeGraphOptions fat_opts;
  fat_opts.raw_scan_penalty = 2.0;
  CubeGraphOptions all_opts = fat_opts;
  all_opts.fat_indexes_only = false;
  StatusOr<CubeGraph> fat = TryBuildCubeGraph(
      cube.schema, cube.sizes, AllSliceQueries(lattice), fat_opts);
  ASSERT_TRUE(fat.ok()) << fat.status().ToString();
  StatusOr<CubeGraph> all = TryBuildCubeGraph(
      cube.schema, cube.sizes, AllSliceQueries(lattice), all_opts);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  double budget = 0.2 * total_space_;
  EXPECT_NEAR(InnerLevelGreedy(fat->graph, budget).Benefit(),
              InnerLevelGreedy(all->graph, budget).Benefit(),
              1e-6 * (1.0 + InnerLevelGreedy(fat->graph, budget).Benefit()));
}

TEST_P(GreedyPropertyTest, LazyOneGreedyEquivalentToEager) {
  for (double frac : {0.02, 0.1, 0.4}) {
    double budget = frac * total_space_;
    // The work comparison is against the full-rescan (unmemoized) eager
    // run; the memoized default can evaluate fewer candidates than lazy.
    SelectionResult eager = RGreedy(cube_->graph, budget,
                                    {.r = 1, .memoize = false});
    SelectionResult lazy = RGreedy(
        cube_->graph, budget,
        RGreedyOptions{.r = 1, .lazy_one_greedy = true});
    EXPECT_NEAR(lazy.Benefit(), eager.Benefit(),
                1e-9 * (1.0 + eager.Benefit()))
        << "frac " << frac;
    EXPECT_NEAR(lazy.final_cost, eager.final_cost,
                1e-9 * (1.0 + eager.final_cost));
    EXPECT_LE(lazy.candidates_evaluated, eager.candidates_evaluated);
  }
}

TEST_P(GreedyPropertyTest, StageCandidatesPartitionTotalWork) {
  // The eager algorithms attribute every candidate evaluation to exactly
  // one stage, so the per-stage counts must sum to the run total (and
  // there is one count per executed stage). The lazy 1-greedy heap
  // evaluates across stage boundaries and documents stage_candidates as
  // empty instead.
  double budget = 0.2 * total_space_;
  for (int algo = 0; algo < 3; ++algo) {
    SelectionResult r =
        algo == 0   ? RGreedy(cube_->graph, budget, {.r = 1})
        : algo == 1 ? RGreedy(cube_->graph, budget, {.r = 2})
                    : InnerLevelGreedy(cube_->graph, budget);
    ASSERT_TRUE(r.status.ok());
    // stages counts picking stages; the terminating no-winner probe adds
    // one more stage_candidates entry (its evaluations still count).
    EXPECT_GE(r.stats.stage_candidates.size(), r.stats.stages)
        << "algo " << algo;
    EXPECT_LE(r.stats.stage_candidates.size(), r.stats.stages + 1)
        << "algo " << algo;
    uint64_t sum = 0;
    for (uint64_t c : r.stats.stage_candidates) sum += c;
    EXPECT_EQ(sum, r.candidates_evaluated) << "algo " << algo;
  }
  SelectionResult lazy = RGreedy(cube_->graph, budget,
                                 RGreedyOptions{.r = 1,
                                                .lazy_one_greedy = true});
  EXPECT_TRUE(lazy.stats.stage_candidates.empty());
}

TEST_P(GreedyPropertyTest, ExhaustiveBudgetSelectsEverythingUseful) {
  // With an unlimited budget every algorithm reaches the perfect benefit
  // (all queries at their cheapest possible plan).
  SelectionResult r = RGreedy(cube_->graph, 10.0 * total_space_,
                              RGreedyOptions{.r = 2});
  StatusOr<double> perfect = PerfectBenefit(cube_->graph);
  ASSERT_TRUE(perfect.ok()) << perfect.status().ToString();
  EXPECT_NEAR(r.Benefit(), *perfect, 1e-6 * (1.0 + *perfect));
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreedyPropertyTest,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace olapidx
