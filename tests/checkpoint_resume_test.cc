// Crash-resume at every stage: for each greedy algorithm (RGreedy via
// 1-greedy, InnerLevelGreedy) on both the flat and the hierarchical
// lattice, interrupt the selection after k = 0..stages-1 stages ("kill"),
// serialize the checkpoint through its on-disk format ("crash"), parse it
// back in a fresh config ("restart"), resume, and require the final
// design to be bit-identical to the uninterrupted run — same structures
// in the same order, same pick benefits, same τ, same space. This is the
// exhaustive form of the resilience-test spot checks: no interruption
// point anywhere in a greedy run may perturb the resumed result.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/advisor.h"
#include "core/serialize.h"
#include "data/synthetic.h"
#include "hierarchy/hierarchical_advisor.h"
#include "workload/workload.h"

namespace olapidx {
namespace {

struct FlatCase {
  const char* name;
  Algorithm algorithm;
};

class FlatCheckpointResumeTest
    : public ::testing::TestWithParam<FlatCase> {
 protected:
  FlatCheckpointResumeTest() : cube_(UniformSyntheticCube(4, 8, 0.3)) {
    CubeLattice lattice(cube_.schema);
    CubeGraphOptions opts;
    opts.raw_scan_penalty = 2.0;
    advisor_ = std::make_unique<Advisor>(
        Advisor::Create(cube_.schema, cube_.sizes, AllSliceQueries(lattice),
                        opts)
            .value());
  }

  AdvisorConfig Config() const {
    AdvisorConfig config;
    config.algorithm = GetParam().algorithm;
    config.space_budget = 0.3 * cube_.sizes.TotalViewSpace();
    return config;
  }

  SyntheticCube cube_;
  std::unique_ptr<Advisor> advisor_;
};

TEST_P(FlatCheckpointResumeTest, KillAtEveryStageResumesBitIdentically) {
  Recommendation full = advisor_->Recommend(Config());
  ASSERT_TRUE(full.completed) << full.status.ToString();
  ASSERT_GT(full.raw.stats.stages, 1u);

  for (size_t k = 0; k < full.raw.stats.stages; ++k) {
    SCOPED_TRACE("killed after stage " + std::to_string(k));
    // Kill: a deterministic stage budget stops the run after k stages.
    AdvisorConfig killed = Config();
    killed.control.max_steps = k;
    Recommendation partial = advisor_->Recommend(killed);
    ASSERT_FALSE(partial.completed);
    ASSERT_EQ(partial.status.code(), StatusCode::kResourceExhausted);
    ASSERT_EQ(partial.raw.stats.stages, k);

    // Crash + restart: the checkpoint survives only via its disk format.
    std::string text = SerializeCheckpoint(partial.ToCheckpoint(killed),
                                           cube_.schema);
    StatusOr<SelectionCheckpoint> checkpoint =
        ParseCheckpoint(text, cube_.schema);
    ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();
    EXPECT_EQ(checkpoint->graph_fingerprint, advisor_->graph_fingerprint());

    AdvisorConfig resumed_config = Config();
    resumed_config.resume = &*checkpoint;
    Recommendation resumed = advisor_->Recommend(resumed_config);
    ASSERT_TRUE(resumed.completed) << resumed.status.ToString();

    ASSERT_EQ(resumed.structures.size(), full.structures.size());
    for (size_t i = 0; i < full.structures.size(); ++i) {
      EXPECT_EQ(resumed.structures[i].view, full.structures[i].view);
      EXPECT_TRUE(resumed.structures[i].index == full.structures[i].index);
      EXPECT_EQ(resumed.structures[i].name, full.structures[i].name);
    }
    EXPECT_EQ(resumed.raw.pick_benefits, full.raw.pick_benefits);
    EXPECT_EQ(resumed.raw.final_cost, full.raw.final_cost);
    EXPECT_EQ(resumed.raw.space_used, full.raw.space_used);
    EXPECT_EQ(resumed.raw.stats.stages, full.raw.stats.stages);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Greedy, FlatCheckpointResumeTest,
    ::testing::Values(FlatCase{"r_greedy", Algorithm::kOneGreedy},
                      FlatCase{"inner_level", Algorithm::kInnerLevel}),
    [](const ::testing::TestParamInfo<FlatCase>& param) {
      return param.param.name;
    });

class HierarchicalCheckpointResumeTest
    : public ::testing::TestWithParam<FlatCase> {
 protected:
  HierarchicalCheckpointResumeTest() {
    HierarchicalSchema schema({
        HierarchicalDimension{"store", {{"store", 40}, {"region", 4}}},
        HierarchicalDimension{"day", {{"day", 30}, {"month", 6}}},
    });
    HierarchicalGraphOptions opts;
    opts.raw_scan_penalty = 2.0;
    StatusOr<HierarchicalAdvisor> advisor = HierarchicalAdvisor::Create(
        schema, 1'000, UniformHWorkload(schema), opts);
    EXPECT_TRUE(advisor.ok()) << advisor.status().ToString();
    advisor_ =
        std::make_unique<HierarchicalAdvisor>(*std::move(advisor));
  }

  AdvisorConfig Config() const {
    AdvisorConfig config;
    config.algorithm = GetParam().algorithm;
    config.space_budget = 2'500;
    return config;
  }

  std::unique_ptr<HierarchicalAdvisor> advisor_;
};

TEST_P(HierarchicalCheckpointResumeTest,
       KillAtEveryStageResumesBitIdentically) {
  HRecommendation full = advisor_->TryRecommend(Config());
  ASSERT_TRUE(full.completed) << full.status.ToString();
  ASSERT_GT(full.raw.stats.stages, 1u);

  for (size_t k = 0; k < full.raw.stats.stages; ++k) {
    SCOPED_TRACE("killed after stage " + std::to_string(k));
    AdvisorConfig killed = Config();
    killed.control.max_steps = k;
    HRecommendation partial = advisor_->TryRecommend(killed);
    ASSERT_FALSE(partial.completed);
    ASSERT_EQ(partial.status.code(), StatusCode::kResourceExhausted);

    HSelectionCheckpoint checkpoint = partial.ToCheckpoint(Config());
    EXPECT_EQ(checkpoint.graph_fingerprint,
              advisor_->graph_fingerprint());
    HRecommendation resumed = advisor_->TryRecommend(Config(), &checkpoint);
    ASSERT_TRUE(resumed.completed) << resumed.status.ToString();

    ASSERT_EQ(resumed.structures.size(), full.structures.size());
    for (size_t i = 0; i < full.structures.size(); ++i) {
      EXPECT_EQ(resumed.structures[i].name, full.structures[i].name);
      EXPECT_EQ(resumed.structures[i].space, full.structures[i].space);
    }
    EXPECT_EQ(resumed.raw.pick_benefits, full.raw.pick_benefits);
    EXPECT_EQ(resumed.raw.final_cost, full.raw.final_cost);
    EXPECT_EQ(resumed.raw.space_used, full.raw.space_used);
    EXPECT_EQ(resumed.raw.stats.stages, full.raw.stats.stages);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Greedy, HierarchicalCheckpointResumeTest,
    ::testing::Values(FlatCase{"r_greedy", Algorithm::kOneGreedy},
                      FlatCase{"inner_level", Algorithm::kInnerLevel}),
    [](const ::testing::TestParamInfo<FlatCase>& param) {
      return param.param.name;
    });

}  // namespace
}  // namespace olapidx
