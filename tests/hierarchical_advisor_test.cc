#include "hierarchy/hierarchical_advisor.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "hierarchy/hierarchical_executor.h"

namespace olapidx {
namespace {

HierarchicalSchema Schema() {
  return HierarchicalSchema({
      HierarchicalDimension{"store", {{"store", 50}, {"region", 5}}},
      HierarchicalDimension{"day", {{"day", 30}, {"month", 6}}},
  });
}

TEST(HierarchicalAdvisorTest, RecommendationIsConsistent) {
  HierarchicalSchema schema = Schema();
  HierarchicalGraphOptions options;
  options.raw_scan_penalty = 2.0;
  StatusOr<HierarchicalAdvisor> advisor = HierarchicalAdvisor::Create(
      schema, 1'000, UniformHWorkload(schema), options);
  ASSERT_TRUE(advisor.ok()) << advisor.status().ToString();
  AdvisorConfig config;
  config.algorithm = Algorithm::kInnerLevel;
  config.space_budget = 2'000;
  HRecommendation rec = advisor->TryRecommend(config);

  ASSERT_FALSE(rec.structures.empty());
  double space = 0.0;
  for (const HRecommendedStructure& s : rec.structures) space += s.space;
  EXPECT_NEAR(space, rec.space_used, 1e-6);
  EXPECT_LT(rec.average_query_cost, rec.initial_average_cost);
  // Every index pick names a view that appears somewhere in the picks.
  for (const HRecommendedStructure& s : rec.structures) {
    if (s.is_view()) continue;
    bool found = false;
    for (const HRecommendedStructure& v : rec.structures) {
      if (v.is_view() && v.view == s.view) found = true;
    }
    EXPECT_TRUE(found) << s.name;
  }
}

TEST(HierarchicalAdvisorTest, RecommendationMaterializes) {
  HierarchicalSchema schema = Schema();
  HierarchyMaps maps = HierarchyMaps::Balanced(schema);
  FactTable fact = GenerateHierarchicalFacts(schema, 1'000, /*seed=*/3);
  HierarchicalGraphOptions options;
  options.raw_scan_penalty = 2.0;
  StatusOr<HierarchicalAdvisor> advisor = HierarchicalAdvisor::Create(
      schema, static_cast<double>(fact.num_rows()), UniformHWorkload(schema),
      options);
  ASSERT_TRUE(advisor.ok()) << advisor.status().ToString();
  AdvisorConfig config;
  config.algorithm = Algorithm::kRGreedy;
  config.r_greedy.r = 2;
  config.space_budget = 2'500;
  HRecommendation rec = advisor->TryRecommend(config);

  HierarchicalCatalog catalog(&fact, &maps);
  for (const HRecommendedStructure& s : rec.structures) {
    catalog.MaterializeView(s.view);
    if (!s.is_view()) catalog.BuildIndex(s.view, s.index_order);
  }
  EXPECT_EQ(catalog.materialized_views().size(),
            static_cast<size_t>(std::count_if(
                rec.structures.begin(), rec.structures.end(),
                [](const HRecommendedStructure& s) { return s.is_view(); })));
}

TEST(HierarchicalAdvisorTest, AllAlgorithmsRun) {
  HierarchicalSchema schema = Schema();
  HierarchicalGraphOptions options;
  options.raw_scan_penalty = 2.0;
  StatusOr<HierarchicalAdvisor> advisor = HierarchicalAdvisor::Create(
      schema, 1'000, UniformHWorkload(schema), options);
  ASSERT_TRUE(advisor.ok()) << advisor.status().ToString();
  for (Algorithm algo :
       {Algorithm::kOneGreedy, Algorithm::kInnerLevel, Algorithm::kTwoStep,
        Algorithm::kHruViewsOnly}) {
    AdvisorConfig config;
    config.algorithm = algo;
    config.space_budget = 1'000;
    config.two_step.strict_fit = true;
    HRecommendation rec = advisor->TryRecommend(config);
    EXPECT_LE(rec.average_query_cost, rec.initial_average_cost)
        << AlgorithmName(algo);
  }
}

TEST(HierarchicalAdvisorRuntimeTest, CreateSurfacesGraphBuildErrors) {
  HierarchicalSchema schema = Schema();
  StatusOr<HierarchicalAdvisor> bad = HierarchicalAdvisor::Create(
      schema, /*raw_rows=*/0.25, UniformHWorkload(schema));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);

  StatusOr<HierarchicalAdvisor> ok =
      HierarchicalAdvisor::Create(schema, 1'000, UniformHWorkload(schema));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  AdvisorConfig config;
  config.space_budget = 1'500;
  HRecommendation rec = ok->TryRecommend(config);
  EXPECT_TRUE(rec.status.ok());
  EXPECT_TRUE(rec.completed);
  EXPECT_FALSE(rec.structures.empty());
}

TEST(HierarchicalAdvisorRuntimeTest, DeadlineAndCancellationInterrupt) {
  HierarchicalSchema schema = Schema();
  StatusOr<HierarchicalAdvisor> advisor =
      HierarchicalAdvisor::Create(schema, 1'000, UniformHWorkload(schema));
  ASSERT_TRUE(advisor.ok()) << advisor.status().ToString();
  AdvisorConfig config;
  config.algorithm = Algorithm::kInnerLevel;
  config.space_budget = 2'000;
  config.control.deadline = Deadline::AfterMillis(0);  // already expired
  HRecommendation rec = advisor->TryRecommend(config);
  EXPECT_FALSE(rec.completed);
  EXPECT_EQ(rec.status.code(), StatusCode::kDeadlineExceeded);

  CancelToken token;
  token.Cancel();
  AdvisorConfig cancelled;
  cancelled.algorithm = Algorithm::kOneGreedy;
  cancelled.space_budget = 2'000;
  cancelled.control.cancel = &token;
  HRecommendation rec2 = advisor->TryRecommend(cancelled);
  EXPECT_FALSE(rec2.completed);
  EXPECT_EQ(rec2.status.code(), StatusCode::kCancelled);
}

TEST(HierarchicalAdvisorRuntimeTest, ResumeReproducesFullRunBitExactly) {
  HierarchicalSchema schema = Schema();
  StatusOr<HierarchicalAdvisor> advisor =
      HierarchicalAdvisor::Create(schema, 1'000, UniformHWorkload(schema));
  ASSERT_TRUE(advisor.ok()) << advisor.status().ToString();
  for (Algorithm algo : {Algorithm::kOneGreedy, Algorithm::kInnerLevel}) {
    SCOPED_TRACE(AlgorithmName(algo));
    AdvisorConfig config;
    config.algorithm = algo;
    config.space_budget = 2'500;
    HRecommendation full = advisor->TryRecommend(config);
    ASSERT_TRUE(full.status.ok());
    ASSERT_GE(full.structures.size(), 2u);

    AdvisorConfig limited = config;
    limited.control.max_steps = 1;
    HRecommendation partial = advisor->TryRecommend(limited);
    ASSERT_FALSE(partial.completed);
    EXPECT_EQ(partial.status.code(), StatusCode::kResourceExhausted);
    ASSERT_LT(partial.structures.size(), full.structures.size());
    HSelectionCheckpoint checkpoint = partial.ToCheckpoint(limited);

    HRecommendation resumed = advisor->TryRecommend(config, &checkpoint);
    ASSERT_TRUE(resumed.status.ok());
    EXPECT_TRUE(resumed.completed);
    ASSERT_EQ(resumed.structures.size(), full.structures.size());
    for (size_t i = 0; i < full.structures.size(); ++i) {
      EXPECT_EQ(resumed.structures[i].name, full.structures[i].name);
      EXPECT_EQ(resumed.structures[i].space, full.structures[i].space);
      EXPECT_EQ(resumed.structures[i].view, full.structures[i].view);
      EXPECT_EQ(resumed.structures[i].index_order,
                full.structures[i].index_order);
    }
    EXPECT_EQ(resumed.space_used, full.space_used);
    EXPECT_EQ(resumed.average_query_cost, full.average_query_cost);
    EXPECT_EQ(resumed.raw.pick_benefits, full.raw.pick_benefits);
  }
}

TEST(HierarchicalAdvisorRuntimeTest, RejectsMismatchedOrFlatCheckpoints) {
  HierarchicalSchema schema = Schema();
  StatusOr<HierarchicalAdvisor> advisor =
      HierarchicalAdvisor::Create(schema, 1'000, UniformHWorkload(schema));
  ASSERT_TRUE(advisor.ok()) << advisor.status().ToString();
  AdvisorConfig config;
  config.algorithm = Algorithm::kOneGreedy;
  config.space_budget = 2'000;
  config.control.max_steps = 1;
  HRecommendation partial = advisor->TryRecommend(config);
  HSelectionCheckpoint checkpoint = partial.ToCheckpoint(config);

  // Different algorithm tag.
  AdvisorConfig other = config;
  other.algorithm = Algorithm::kInnerLevel;
  EXPECT_EQ(advisor->TryRecommend(other, &checkpoint).status.code(),
            StatusCode::kInvalidArgument);
  // Different budget.
  AdvisorConfig rebudgeted = config;
  rebudgeted.space_budget = 999;
  EXPECT_EQ(advisor->TryRecommend(rebudgeted, &checkpoint).status.code(),
            StatusCode::kInvalidArgument);
  // A pick that does not exist in this lattice.
  HSelectionCheckpoint alien = checkpoint;
  alien.picks.push_back(HRecommendedStructure{
      LevelVector({7, 7}), {}, "bogus", 1.0});
  alien.pick_benefits.push_back(1.0);
  EXPECT_EQ(advisor->TryRecommend(config, &alien).status.code(),
            StatusCode::kInvalidArgument);
  // The flat-cube checkpoint slot is meaningless here.
  SelectionCheckpoint flat;
  AdvisorConfig with_flat = config;
  with_flat.resume = &flat;
  EXPECT_EQ(advisor->TryRecommend(with_flat).status.code(),
            StatusCode::kInvalidArgument);
}

TEST(HierarchicalAdvisorRuntimeTest, NonGreedyRejectsControlAndResume) {
  HierarchicalSchema schema = Schema();
  StatusOr<HierarchicalAdvisor> advisor =
      HierarchicalAdvisor::Create(schema, 1'000, UniformHWorkload(schema));
  ASSERT_TRUE(advisor.ok()) << advisor.status().ToString();
  AdvisorConfig config;
  config.algorithm = Algorithm::kTwoStep;
  config.space_budget = 1'000;
  config.control.max_steps = 3;
  EXPECT_EQ(advisor->TryRecommend(config).status.code(),
            StatusCode::kUnimplemented);

  AdvisorConfig with_resume;
  with_resume.algorithm = Algorithm::kTwoStep;
  with_resume.space_budget = 1'000;
  HSelectionCheckpoint checkpoint;
  checkpoint.algorithm = AlgorithmName(Algorithm::kTwoStep);
  checkpoint.space_budget = 1'000;
  EXPECT_EQ(advisor->TryRecommend(with_resume, &checkpoint).status.code(),
            StatusCode::kInvalidArgument);
}

// A checkpoint stamps the graph's fingerprint, and a second advisor
// created from the same inputs has the same graph: it resumes the run
// bit-exactly. An advisor over other inputs rejects the checkpoint.
TEST(HierarchicalAdvisorRuntimeTest, CheckpointResumesOnASecondAdvisor) {
  HierarchicalSchema schema = Schema();
  StatusOr<HierarchicalAdvisor> first =
      HierarchicalAdvisor::Create(schema, 1'000, UniformHWorkload(schema));
  StatusOr<HierarchicalAdvisor> second =
      HierarchicalAdvisor::Create(schema, 1'000, UniformHWorkload(schema));
  StatusOr<HierarchicalAdvisor> other =
      HierarchicalAdvisor::Create(schema, 2'000, UniformHWorkload(schema));
  ASSERT_TRUE(first.ok() && second.ok() && other.ok());
  EXPECT_NE(first->graph_fingerprint(), 0u);
  EXPECT_EQ(second->graph_fingerprint(), first->graph_fingerprint());
  EXPECT_NE(other->graph_fingerprint(), first->graph_fingerprint());

  AdvisorConfig config;
  config.algorithm = Algorithm::kInnerLevel;
  config.space_budget = 2'500;
  HRecommendation full = first->TryRecommend(config);
  ASSERT_TRUE(full.status.ok());
  EXPECT_EQ(full.graph_fingerprint, first->graph_fingerprint());
  AdvisorConfig limited = config;
  limited.control.max_steps = 1;
  HRecommendation partial = first->TryRecommend(limited);
  ASSERT_EQ(partial.status.code(), StatusCode::kResourceExhausted);
  HSelectionCheckpoint checkpoint = partial.ToCheckpoint(config);
  EXPECT_EQ(checkpoint.graph_fingerprint, first->graph_fingerprint());

  HRecommendation resumed = second->TryRecommend(config, &checkpoint);
  ASSERT_TRUE(resumed.status.ok()) << resumed.status.ToString();
  ASSERT_EQ(resumed.structures.size(), full.structures.size());
  for (size_t i = 0; i < full.structures.size(); ++i) {
    EXPECT_EQ(resumed.structures[i].name, full.structures[i].name);
  }
  EXPECT_EQ(resumed.raw.pick_benefits, full.raw.pick_benefits);
  EXPECT_EQ(resumed.raw.final_cost, full.raw.final_cost);
  EXPECT_EQ(other->TryRecommend(config, &checkpoint).status.code(),
            StatusCode::kFailedPrecondition);
}

// The flat advisor's config checks hold here too: a negative or
// non-finite budget, or a two-step index fraction outside [0, 1], is an
// InvalidArgument for every algorithm instead of an abort.
TEST(HierarchicalAdvisorRuntimeTest,
     BadBudgetOrIndexFractionIsInvalidArgument) {
  HierarchicalSchema schema = Schema();
  StatusOr<HierarchicalAdvisor> advisor =
      HierarchicalAdvisor::Create(schema, 1'000, UniformHWorkload(schema));
  ASSERT_TRUE(advisor.ok()) << advisor.status().ToString();
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
      HRecommendation rec = advisor->TryRecommend(config);
      EXPECT_EQ(rec.status.code(), StatusCode::kInvalidArgument) << budget;
      EXPECT_TRUE(rec.structures.empty());
    }
    for (double fraction : {2.0, -0.5, nan}) {
      AdvisorConfig config;
      config.algorithm = algo;
      config.space_budget = 1'000;
      config.two_step.index_fraction = fraction;
      EXPECT_EQ(advisor->TryRecommend(config).status.code(),
                StatusCode::kInvalidArgument)
          << fraction;
    }
  }
}


// The hierarchical graph's fingerprint, pinned so that a change to either
// build plan shows. Each value is the same at 1, 2 and 8 threads.
TEST(HierarchicalFingerprintPinTest, StoreDayPlans) {
  HierarchicalSchema schema = Schema();
  for (size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(threads);
    HierarchicalGraphOptions identity;
    identity.raw_scan_penalty = 2.0;
    identity.num_threads = threads;
    StatusOr<HierarchicalCubeGraph> dense = TryBuildHierarchicalCubeGraph(
        schema, 1'000, UniformHWorkload(schema), identity);
    ASSERT_TRUE(dense.ok()) << dense.status().ToString();
    EXPECT_EQ(dense->graph.Fingerprint(), 0x11fc0193fb42acaaULL);
    EXPECT_FALSE(dense->sparse_stats.has_value());

    HierarchicalGraphOptions unpruned = identity;
    unpruned.pruning.emplace();
    StatusOr<HierarchicalCubeGraph> same = TryBuildHierarchicalCubeGraph(
        schema, 1'000, UniformHWorkload(schema), unpruned);
    ASSERT_TRUE(same.ok()) << same.status().ToString();
    EXPECT_EQ(same->graph.Fingerprint(), 0x11fc0193fb42acaaULL);

    HierarchicalGraphOptions half = unpruned;
    half.pruning->query_mass = 0.5;
    StatusOr<HierarchicalCubeGraph> pruned = TryBuildHierarchicalCubeGraph(
        schema, 1'000, UniformHWorkload(schema), half);
    ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
    EXPECT_EQ(pruned->graph.Fingerprint(), 0xc846d51ee0309fb0ULL);
    ASSERT_TRUE(pruned->sparse_stats.has_value());
    EXPECT_EQ(pruned->sparse_stats->workload_queries, 25u);
    EXPECT_EQ(pruned->sparse_stats->retained_queries, 13u);
    EXPECT_EQ(pruned->sparse_stats->retained_views, 9u);
  }
}

// advisor_cli's dim-8 hierarchy (a..h: 100/10) under a Zipf sample and
// the default pruning, the CI smoke's graph.
TEST(HierarchicalFingerprintPinTest, DimEightZipfPrunedPlan) {
  std::vector<HierarchicalDimension> dims;
  for (char c = 'a'; c <= 'h'; ++c) {
    const std::string name(1, c);
    dims.push_back(
        HierarchicalDimension{name, {{name, 100}, {name + "_l1", 10}}});
  }
  HierarchicalSchema schema(std::move(dims));
  const std::vector<WeightedHQuery> workload =
      SampledZipfHWorkload(schema, 200, 1.0, 42);
  for (size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(threads);
    HierarchicalGraphOptions options;
    options.num_threads = threads;
    options.pruning.emplace();
    StatusOr<HierarchicalCubeGraph> built =
        TryBuildHierarchicalCubeGraph(schema, 1e8, workload, options);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    EXPECT_EQ(built->graph.Fingerprint(), 0x7bbf5bee05e9a9c0ULL);
    ASSERT_TRUE(built->sparse_stats.has_value());
    EXPECT_EQ(built->sparse_stats->retained_views, 2'896u);
    EXPECT_EQ(built->sparse_stats->candidate_views, 1'229u);
  }
}

HierarchicalGraphOptions PrunedOptions(double query_mass) {
  HierarchicalGraphOptions options;
  options.raw_scan_penalty = 2.0;
  options.pruning.emplace().query_mass = query_mass;
  return options;
}

// With nothing pruned, the pruned plan's advisor has the identity plan's
// graph and recommends the same picks.
TEST(HierarchicalPrunedAdvisorTest, UnprunedMatchesIdentityPlan) {
  HierarchicalSchema schema = Schema();
  HierarchicalGraphOptions identity;
  identity.raw_scan_penalty = 2.0;
  StatusOr<HierarchicalAdvisor> dense = HierarchicalAdvisor::Create(
      schema, 1'000, UniformHWorkload(schema), identity);
  StatusOr<HierarchicalAdvisor> pruned = HierarchicalAdvisor::Create(
      schema, 1'000, UniformHWorkload(schema), PrunedOptions(1.0));
  ASSERT_TRUE(dense.ok()) << dense.status().ToString();
  ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
  EXPECT_EQ(dense->sparse_stats(), nullptr);
  ASSERT_NE(pruned->sparse_stats(), nullptr);
  EXPECT_EQ(pruned->sparse_stats()->retained_queries, 25u);
  EXPECT_EQ(pruned->graph_fingerprint(), dense->graph_fingerprint());
  EXPECT_EQ(pruned->graph_fingerprint(), 0x11fc0193fb42acaaULL);
  for (Algorithm algo : {Algorithm::kOneGreedy, Algorithm::kRGreedy,
                         Algorithm::kInnerLevel}) {
    SCOPED_TRACE(AlgorithmName(algo));
    AdvisorConfig config;
    config.algorithm = algo;
    config.space_budget = 2'500;
    HRecommendation a = dense->TryRecommend(config);
    HRecommendation b = pruned->TryRecommend(config);
    ASSERT_TRUE(a.status.ok()) << a.status.ToString();
    ASSERT_TRUE(b.status.ok()) << b.status.ToString();
    ASSERT_EQ(b.structures.size(), a.structures.size());
    for (size_t i = 0; i < a.structures.size(); ++i) {
      EXPECT_EQ(b.structures[i].name, a.structures[i].name);
      EXPECT_EQ(b.structures[i].view, a.structures[i].view);
      EXPECT_EQ(b.structures[i].index_order, a.structures[i].index_order);
    }
    EXPECT_EQ(b.raw.pick_benefits, a.raw.pick_benefits);
    EXPECT_EQ(b.average_query_cost, a.average_query_cost);
  }
}

// A pruned advisor reports what it dropped, and a checkpoint taken on one
// resumes bit-exactly on a second advisor built from the same inputs.
TEST(HierarchicalPrunedAdvisorTest, CheckpointResumesOnASecondPrunedAdvisor) {
  HierarchicalSchema schema = Schema();
  StatusOr<HierarchicalAdvisor> first = HierarchicalAdvisor::Create(
      schema, 1'000, UniformHWorkload(schema), PrunedOptions(0.5));
  StatusOr<HierarchicalAdvisor> second = HierarchicalAdvisor::Create(
      schema, 1'000, UniformHWorkload(schema), PrunedOptions(0.5));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  const SparseBuildStats* stats = first->sparse_stats();
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->workload_queries, 25u);
  EXPECT_EQ(stats->retained_queries, 13u);
  EXPECT_GT(stats->dropped_mass, 0.0);
  EXPECT_EQ(first->graph_fingerprint(), 0xc846d51ee0309fb0ULL);
  EXPECT_EQ(second->graph_fingerprint(), first->graph_fingerprint());

  AdvisorConfig config;
  config.algorithm = Algorithm::kInnerLevel;
  config.space_budget = 2'500;
  HRecommendation full = first->TryRecommend(config);
  ASSERT_TRUE(full.status.ok()) << full.status.ToString();
  ASSERT_GE(full.structures.size(), 2u);
  AdvisorConfig limited = config;
  limited.control.max_steps = 1;
  HRecommendation partial = first->TryRecommend(limited);
  ASSERT_EQ(partial.status.code(), StatusCode::kResourceExhausted);
  HSelectionCheckpoint checkpoint = partial.ToCheckpoint(config);
  EXPECT_EQ(checkpoint.graph_fingerprint, first->graph_fingerprint());

  HRecommendation resumed = second->TryRecommend(config, &checkpoint);
  ASSERT_TRUE(resumed.status.ok()) << resumed.status.ToString();
  ASSERT_EQ(resumed.structures.size(), full.structures.size());
  for (size_t i = 0; i < full.structures.size(); ++i) {
    EXPECT_EQ(resumed.structures[i].name, full.structures[i].name);
    EXPECT_EQ(resumed.structures[i].index_order,
              full.structures[i].index_order);
  }
  EXPECT_EQ(resumed.raw.pick_benefits, full.raw.pick_benefits);
  EXPECT_EQ(resumed.raw.final_cost, full.raw.final_cost);
}

TEST(HierarchicalPrunedAdvisorTest, RejectsBadPruningOptions) {
  HierarchicalSchema schema = Schema();
  const std::vector<WeightedHQuery> workload = UniformHWorkload(schema);
  auto code_of = [&](const HierarchicalGraphOptions& options) {
    return HierarchicalAdvisor::Create(schema, 1'000, workload, options)
        .status()
        .code();
  };
  HierarchicalGraphOptions ablation = PrunedOptions(1.0);
  ablation.fat_indexes_only = false;
  EXPECT_EQ(code_of(ablation), StatusCode::kInvalidArgument);
  HierarchicalGraphOptions wide = PrunedOptions(1.0);
  wide.pruning->max_fat_dim = 9;
  EXPECT_EQ(code_of(wide), StatusCode::kInvalidArgument);
  HierarchicalGraphOptions negative = PrunedOptions(1.0);
  negative.pruning->max_fat_dim = -1;
  EXPECT_EQ(code_of(negative), StatusCode::kInvalidArgument);
  for (double mass : {0.0, std::numeric_limits<double>::quiet_NaN(), 1.5}) {
    EXPECT_EQ(code_of(PrunedOptions(mass)), StatusCode::kInvalidArgument)
        << mass;
  }
  // The identity plan still builds the ablation family.
  HierarchicalGraphOptions identity_ablation;
  identity_ablation.fat_indexes_only = false;
  EXPECT_EQ(code_of(identity_ablation), StatusCode::kOk);
}

}  // namespace
}  // namespace olapidx
