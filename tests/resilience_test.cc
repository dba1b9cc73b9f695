// Resilience of the advisor runtime: the anytime contract (an interrupted
// run returns a valid best-so-far prefix), bit-exact checkpoint/resume,
// the monotonicity of τ in the stage budget, and the Advisor's rejection
// of inconsistent configs and checkpoints.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/advisor.h"
#include "core/inner_greedy.h"
#include "core/r_greedy.h"
#include "core/serialize.h"
#include "data/synthetic.h"
#include "workload/workload.h"

namespace olapidx {
namespace {

bool IsPrefixOf(const std::vector<StructureRef>& prefix,
                const std::vector<StructureRef>& full) {
  if (prefix.size() > full.size()) return false;
  for (size_t i = 0; i < prefix.size(); ++i) {
    if (!(prefix[i] == full[i])) return false;
  }
  return true;
}

CubeGraph Dim4Graph() {
  SyntheticCube cube = UniformSyntheticCube(4, 8, 0.3);
  CubeLattice lattice(cube.schema);
  CubeGraphOptions opts;
  opts.raw_scan_penalty = 2.0;
  return TryBuildCubeGraph(cube.schema, cube.sizes, AllSliceQueries(lattice),
                           opts)
      .value();
}

TEST(ResilienceTest, ExpiredDeadlineReturnsEmptyAnytimeResult) {
  CubeGraph cg = Dim4Graph();
  RGreedyOptions options;
  options.control.deadline = Deadline::AfterMillis(0);  // already expired
  SelectionResult r = RGreedy(cg.graph, 1e18, options);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(r.status.IsInterruption());
  EXPECT_TRUE(r.picks.empty());
  EXPECT_EQ(r.stats.stages, 0u);
}

TEST(ResilienceTest, MidRunDeadlineReturnsValidPrefix) {
  CubeGraph cg = Dim4Graph();
  SelectionResult full = RGreedy(cg.graph, 1e18, RGreedyOptions{});
  ASSERT_TRUE(full.completed);
  // A tiny (but nonzero) deadline interrupts somewhere mid-run; wherever
  // it lands, determinism makes the picks a prefix of the full run.
  RGreedyOptions options;
  options.control.deadline = Deadline::AfterMicros(50);
  SelectionResult partial = RGreedy(cg.graph, 1e18, options);
  EXPECT_TRUE(IsPrefixOf(partial.picks, full.picks));
  if (!partial.completed) {
    EXPECT_EQ(partial.status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_LE(partial.space_used, full.space_used);
  }
}

TEST(ResilienceTest, CancelTokenStopsRun) {
  CubeGraph cg = Dim4Graph();
  CancelToken token;
  token.Cancel();  // cancelled before the first stage
  InnerGreedyOptions options;
  options.control.cancel = &token;
  SelectionResult r = InnerLevelGreedy(cg.graph, 1e18, options);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.status.code(), StatusCode::kCancelled);
  EXPECT_TRUE(r.picks.empty());
}

TEST(ResilienceTest, CancellationWinsOverExpiredDeadline) {
  CubeGraph cg = Dim4Graph();
  CancelToken token;
  token.Cancel();
  RGreedyOptions options;
  options.control.cancel = &token;
  options.control.deadline = Deadline::AfterMillis(0);
  SelectionResult r = RGreedy(cg.graph, 1e18, options);
  EXPECT_EQ(r.status.code(), StatusCode::kCancelled);
}

TEST(ResilienceTest, StageBudgetYieldsExactPrefix) {
  CubeGraph cg = Dim4Graph();
  for (int r_value : {1, 2}) {
    RGreedyOptions base;
    base.r = r_value;
    SelectionResult full = RGreedy(cg.graph, 1e18, base);
    ASSERT_TRUE(full.completed);
    ASSERT_GT(full.stats.stages, 2u);
    for (size_t k = 0; k <= full.stats.stages + 1; ++k) {
      RGreedyOptions options = base;
      options.control.max_steps = k;
      SelectionResult partial = RGreedy(cg.graph, 1e18, options);
      EXPECT_TRUE(IsPrefixOf(partial.picks, full.picks))
          << "r=" << r_value << " k=" << k;
      if (k < full.stats.stages) {
        EXPECT_FALSE(partial.completed);
        EXPECT_EQ(partial.status.code(), StatusCode::kResourceExhausted);
        EXPECT_EQ(partial.stats.stages, k);
      } else {
        // All natural stages fit in the budget, so the picks are complete.
        // With k == stages exactly, the run cannot *prove* it is done (the
        // budget expires before the final no-positive-candidate stage) and
        // conservatively reports exhaustion; one extra step completes.
        EXPECT_EQ(partial.picks.size(), full.picks.size());
        if (k > full.stats.stages) {
          EXPECT_TRUE(partial.completed) << "k=" << k;
        }
      }
    }
  }
}

TEST(ResilienceTest, TauMonotoneNonIncreasingInStageBudget) {
  CubeGraph cg = Dim4Graph();
  // τ of the partial design must never get worse with a larger budget —
  // for every algorithm in the greedy family.
  struct Case {
    const char* name;
    std::function<SelectionResult(size_t)> run;
  };
  std::vector<Case> cases;
  for (int r_value : {1, 2}) {
    cases.push_back(Case{
        r_value == 1 ? "1-greedy" : "2-greedy", [&cg, r_value](size_t k) {
          RGreedyOptions options;
          options.r = r_value;
          options.control.max_steps = k;
          return RGreedy(cg.graph, 1e18, options);
        }});
  }
  cases.push_back(Case{"inner-level", [&cg](size_t k) {
                         InnerGreedyOptions options;
                         options.control.max_steps = k;
                         return InnerLevelGreedy(cg.graph, 1e18, options);
                       }});
  for (const Case& c : cases) {
    double prev_tau = 0.0;
    for (size_t k = 0; k <= 8; ++k) {
      SelectionResult r = c.run(k);
      if (k > 0) {
        EXPECT_LE(r.final_cost, prev_tau) << c.name << " budget " << k;
      }
      prev_tau = r.final_cost;
    }
  }
}

class AdvisorResumeTest : public ::testing::Test {
 protected:
  AdvisorResumeTest() : cube_(UniformSyntheticCube(5, 10, 0.2)) {
    CubeLattice lattice(cube_.schema);
    CubeGraphOptions opts;
    opts.raw_scan_penalty = 2.0;
    advisor_ = std::make_unique<Advisor>(
        Advisor::Create(cube_.schema, cube_.sizes, AllSliceQueries(lattice),
                        opts)
            .value());
  }

  AdvisorConfig Config(Algorithm algorithm) const {
    AdvisorConfig config;
    config.algorithm = algorithm;
    config.space_budget = 0.25 * cube_.sizes.TotalViewSpace();
    return config;
  }

  SyntheticCube cube_;
  std::unique_ptr<Advisor> advisor_;
};

TEST_F(AdvisorResumeTest, ResumeReproducesUninterruptedRunBitExactly) {
  for (Algorithm algorithm :
       {Algorithm::kOneGreedy, Algorithm::kInnerLevel}) {
    AdvisorConfig config = Config(algorithm);
    Recommendation full = advisor_->Recommend(config);
    ASSERT_TRUE(full.completed) << AlgorithmName(algorithm);
    ASSERT_GT(full.raw.stats.stages, 2u);

    // Interrupt after 2 stages and checkpoint.
    AdvisorConfig limited = Config(algorithm);
    limited.control.max_steps = 2;
    Recommendation partial = advisor_->Recommend(limited);
    ASSERT_FALSE(partial.completed);
    ASSERT_EQ(partial.status.code(), StatusCode::kResourceExhausted);

    // Round-trip the checkpoint through its on-disk format.
    std::string text = SerializeCheckpoint(partial.ToCheckpoint(limited),
                                           cube_.schema);
    StatusOr<SelectionCheckpoint> checkpoint =
        ParseCheckpoint(text, cube_.schema);
    ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();

    AdvisorConfig resumed_config = Config(algorithm);
    resumed_config.resume = &*checkpoint;
    Recommendation resumed = advisor_->Recommend(resumed_config);
    ASSERT_TRUE(resumed.completed) << resumed.status.ToString();

    // The combined pick sequence is bit-identical to the uninterrupted
    // run: same structures, same incremental benefits, same τ.
    ASSERT_EQ(resumed.structures.size(), full.structures.size());
    for (size_t i = 0; i < full.structures.size(); ++i) {
      EXPECT_EQ(resumed.structures[i].view, full.structures[i].view);
      EXPECT_TRUE(resumed.structures[i].index == full.structures[i].index);
    }
    EXPECT_EQ(resumed.raw.pick_benefits, full.raw.pick_benefits);
    EXPECT_EQ(resumed.raw.final_cost, full.raw.final_cost);
    EXPECT_EQ(resumed.raw.space_used, full.raw.space_used);
    EXPECT_EQ(resumed.raw.stats.stages, full.raw.stats.stages);
  }
}

TEST_F(AdvisorResumeTest, RejectsCheckpointFromDifferentRun) {
  AdvisorConfig config = Config(Algorithm::kOneGreedy);
  config.control.max_steps = 1;
  Recommendation partial = advisor_->Recommend(config);
  ASSERT_FALSE(partial.completed);
  SelectionCheckpoint checkpoint = partial.ToCheckpoint(config);

  // Wrong algorithm tag.
  AdvisorConfig other = Config(Algorithm::kInnerLevel);
  other.resume = &checkpoint;
  Recommendation rec = advisor_->Recommend(other);
  EXPECT_EQ(rec.status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(rec.structures.empty());

  // Wrong budget.
  AdvisorConfig rebudgeted = Config(Algorithm::kOneGreedy);
  rebudgeted.space_budget *= 2.0;
  rebudgeted.resume = &checkpoint;
  rec = advisor_->Recommend(rebudgeted);
  EXPECT_EQ(rec.status.code(), StatusCode::kInvalidArgument);

  // A pick that does not exist in this cube's index family.
  SelectionCheckpoint bogus = checkpoint;
  bogus.picks.push_back(RecommendedStructure{
      AttributeSet::Of({0}), IndexKey({1}), "bogus", 1.0});
  bogus.pick_benefits.push_back(1.0);
  AdvisorConfig with_bogus = Config(Algorithm::kOneGreedy);
  with_bogus.resume = &bogus;
  rec = advisor_->Recommend(with_bogus);
  EXPECT_EQ(rec.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rec.status.message().find("checkpoint pick"),
            std::string::npos)
      << rec.status.ToString();
}

TEST_F(AdvisorResumeTest, NonGreedyAlgorithmsRejectControlAndResume) {
  AdvisorConfig config = Config(Algorithm::kOptimal);
  config.control.max_steps = 3;
  Recommendation rec = advisor_->Recommend(config);
  EXPECT_EQ(rec.status.code(), StatusCode::kUnimplemented);
  EXPECT_FALSE(rec.completed);
  EXPECT_TRUE(rec.structures.empty());

  SelectionCheckpoint checkpoint;
  checkpoint.algorithm = "branch-and-bound optimal";
  AdvisorConfig with_resume = Config(Algorithm::kTwoStep);
  with_resume.resume = &checkpoint;
  rec = advisor_->Recommend(with_resume);
  EXPECT_EQ(rec.status.code(), StatusCode::kInvalidArgument);
}

TEST_F(AdvisorResumeTest, InterruptedRecommendationIsUsable) {
  // The anytime contract at the Advisor level: an interrupted run still
  // reports per-query plans over the partial design, and never a worse
  // average cost than the empty design.
  AdvisorConfig config = Config(Algorithm::kInnerLevel);
  config.control.max_steps = 1;
  Recommendation rec = advisor_->Recommend(config);
  ASSERT_FALSE(rec.completed);
  ASSERT_EQ(rec.structures.size(), rec.raw.picks.size());
  EXPECT_FALSE(rec.plans.empty());
  EXPECT_LE(rec.average_query_cost, rec.initial_average_cost);
}

}  // namespace
}  // namespace olapidx
