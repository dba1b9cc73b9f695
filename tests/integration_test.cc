// End-to-end pipeline test: generate data → measure exact view sizes with
// the engine → run the advisor → materialize the recommendation → execute
// the whole workload → check answers against the naive executor and costs
// against the linear cost model.

#include <gtest/gtest.h>

#include "core/advisor.h"
#include "data/fact_generator.h"
#include "engine/executor.h"

namespace olapidx {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  static constexpr double kBudgetFraction = 0.4;

  PipelineTest()
      : fact_(GenerateTpcdScaledFacts({.parts = 500,
                                       .suppliers = 40,
                                       .customers = 300,
                                       .suppliers_per_part = 4,
                                       .rows = 15'000,
                                       .seed = 123})),
        catalog_(&fact_),
        executor_(&catalog_) {
    // Exact view sizes measured by materializing every subcube in a scratch
    // catalog (3 dims → cheap).
    sizes_ = ViewSizes(3);
    Catalog scratch(&fact_);
    for (uint32_t mask = 0; mask < 8; ++mask) {
      AttributeSet attrs = AttributeSet::FromMask(mask);
      sizes_.Set(attrs,
                 static_cast<double>(scratch.MaterializeView(attrs)));
    }
  }

  FactTable fact_;
  ViewSizes sizes_;
  Catalog catalog_;
  Executor executor_;
};

TEST_F(PipelineTest, AdvisorRecommendationExecutesCorrectlyAndFast) {
  CubeSchema schema = fact_.schema();
  CubeLattice lattice(schema);
  Workload workload = AllSliceQueries(lattice);
  CubeGraphOptions gopts;
  gopts.raw_scan_penalty = 2.0;
  StatusOr<Advisor> advisor = Advisor::Create(schema, sizes_, workload, gopts);
  ASSERT_TRUE(advisor.ok()) << advisor.status().ToString();

  AdvisorConfig config;
  config.algorithm = Algorithm::kInnerLevel;
  config.space_budget =
      kBudgetFraction *
      (sizes_.TotalViewSpace() + sizes_.TotalFatIndexSpace());
  Recommendation rec = advisor->Recommend(config);
  ASSERT_FALSE(rec.structures.empty());

  // Materialize the recommendation.
  for (const RecommendedStructure& s : rec.structures) {
    if (s.is_view()) {
      catalog_.MaterializeView(s.view);
    } else {
      catalog_.BuildIndex(s.view, s.index);
    }
  }
  // The engine's space accounting must match the advisor's estimate
  // exactly: sizes were measured from the same data.
  EXPECT_NEAR(catalog_.TotalSpaceRows(), rec.space_used, 1e-6);

  // Execute every workload query with concrete selection constants and
  // compare with the naive executor; accumulate measured rows processed.
  Pcg32 rng(7);
  double measured_total = 0.0;
  for (const QueryPlan& plan : rec.plans) {
    std::vector<uint32_t> values;
    for (int a : plan.query.selection().ToVector()) {
      values.push_back(rng.NextBounded(static_cast<uint32_t>(
          schema.dimension(a).cardinality)));
    }
    ExecutionStats stats;
    GroupedResult fast = executor_.Execute(plan.query, values, &stats);
    GroupedResult naive = executor_.ExecuteNaive(plan.query, values);
    ASSERT_EQ(fast.num_rows(), naive.num_rows())
        << plan.query.ToString(schema.names());
    for (size_t r = 0; r < fast.num_rows(); ++r) {
      EXPECT_EQ(fast.keys[r], naive.keys[r]);
      EXPECT_NEAR(fast.sums[r], naive.sums[r], 1e-6);
    }
    measured_total += static_cast<double>(stats.rows_processed);
    // No query should fall back to raw data: the advisor materialized at
    // least one answering structure per query (the base view).
    EXPECT_FALSE(stats.used_raw);
  }

  // The measured average must sit well below a raw scan per query and in
  // the ballpark of the advisor's estimate. Index estimates are
  // *average* slice sizes, so allow generous slack per query.
  double measured_avg = measured_total / static_cast<double>(27);
  EXPECT_LT(measured_avg, 0.25 * static_cast<double>(fact_.num_rows()));
  EXPECT_LT(measured_avg, 4.0 * rec.average_query_cost + 100.0);
}

TEST_F(PipelineTest, MeasuredScanCostsMatchModelExactly) {
  // For plain view scans the model's cost (|V|) must equal the engine's
  // rows processed exactly.
  catalog_.MaterializeView(AttributeSet::Of({0, 1}));
  SliceQuery q(AttributeSet::Of({0}), AttributeSet::Of({1}));
  ExecutionStats stats;
  executor_.Execute(q, {3}, &stats);
  EXPECT_EQ(static_cast<double>(stats.rows_processed),
            sizes_.SizeOf(AttributeSet::Of({0, 1})));
}

TEST_F(PipelineTest, MeasuredIndexCostsMatchModelOnAverage) {
  // The paper's index cost |V| / |E| is an average over slices; check the
  // *mean* measured rows over all selection constants equals it.
  AttributeSet ps = AttributeSet::Of({0, 1});
  catalog_.MaterializeView(ps);
  catalog_.BuildIndex(ps, IndexKey({1, 0}));
  SliceQuery q(AttributeSet::Of({0}), AttributeSet::Of({1}));

  double total_rows = 0.0;
  uint32_t n_suppliers =
      static_cast<uint32_t>(fact_.schema().dimension(1).cardinality);
  for (uint32_t s = 0; s < n_suppliers; ++s) {
    ExecutionStats stats;
    executor_.Execute(q, {s}, &stats);
    EXPECT_EQ(stats.index, IndexKey({1, 0}));
    total_rows += static_cast<double>(stats.rows_processed);
  }
  double measured_avg = total_rows / n_suppliers;
  double model = sizes_.SizeOf(ps) / sizes_.SizeOf(AttributeSet::Of({1}));
  // |E| here is the count of *observed* suppliers while the loop divides
  // by the domain size; they coincide because every supplier id appears.
  EXPECT_NEAR(measured_avg, model, 0.05 * model + 1.0);
}

}  // namespace
}  // namespace olapidx
