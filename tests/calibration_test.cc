// The calibration pipeline end to end: fitter properties (planted
// coefficients, rank deficiency, degenerate inputs), the golden
// regression pinning the fitted coefficients and the dataset schema, and
// the paired-selection never-worse invariant.

#include <bit>
#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "calibration/calibrator.h"
#include "common/metrics.h"
#include "cost/calibrated_cost_model.h"
#include "data/fact_generator.h"
#include "data/size_estimation.h"
#include "engine/catalog.h"
#include "workload/workload.h"

namespace olapidx {
namespace {

// ---------------------------------------------------------------------------
// FitLeastSquares properties.
// ---------------------------------------------------------------------------

TEST(FitLeastSquaresTest, RecoversPlantedCoefficients) {
  // y = 2 x0 + 3 x1 + 7, no noise: the fit must be exact.
  std::vector<std::vector<double>> rows;
  std::vector<double> targets;
  for (int i = 0; i < 12; ++i) {
    const double x0 = static_cast<double>(i);
    const double x1 = static_cast<double>((i * 5) % 7);
    rows.push_back({x0, x1, 1.0});
    targets.push_back(2.0 * x0 + 3.0 * x1 + 7.0);
  }
  StatusOr<LeastSquaresFit> fit = FitLeastSquares(rows, targets);
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();
  ASSERT_EQ(fit->coefficients.size(), 3u);
  EXPECT_NEAR(fit->coefficients[0], 2.0, 1e-9);
  EXPECT_NEAR(fit->coefficients[1], 3.0, 1e-9);
  EXPECT_NEAR(fit->coefficients[2], 7.0, 1e-9);
  EXPECT_TRUE(fit->dropped_columns.empty());
  EXPECT_NEAR(fit->r_squared, 1.0, 1e-9);
  EXPECT_LT(fit->rss, 1e-9);
}

TEST(FitLeastSquaresTest, OverdeterminedNoisyFitIsFinite) {
  std::vector<std::vector<double>> rows;
  std::vector<double> targets;
  for (int i = 0; i < 50; ++i) {
    const double x = static_cast<double>(i);
    rows.push_back({x, 1.0});
    // Deterministic "noise" that no line fits exactly.
    targets.push_back(4.0 * x + 10.0 + ((i % 3) - 1));
  }
  StatusOr<LeastSquaresFit> fit = FitLeastSquares(rows, targets);
  ASSERT_TRUE(fit.ok());
  EXPECT_TRUE(std::isfinite(fit->coefficients[0]));
  EXPECT_TRUE(std::isfinite(fit->coefficients[1]));
  EXPECT_NEAR(fit->coefficients[0], 4.0, 0.05);
  EXPECT_GT(fit->r_squared, 0.99);
  EXPECT_GT(fit->rss, 0.0);
}

TEST(FitLeastSquaresTest, RankDeficientStrictReturnsFailedPrecondition) {
  // Second column is an exact multiple of the first.
  std::vector<std::vector<double>> rows = {
      {1.0, 2.0}, {2.0, 4.0}, {3.0, 6.0}};
  std::vector<double> targets = {1.0, 2.0, 3.0};
  StatusOr<LeastSquaresFit> fit = FitLeastSquares(rows, targets);
  ASSERT_FALSE(fit.ok());
  EXPECT_EQ(fit.status().code(), StatusCode::kFailedPrecondition);
}

TEST(FitLeastSquaresTest, DropModeRecoversFromZeroColumn) {
  // Column 1 is all-zero — exactly what OLAPIDX_METRICS=OFF produces for
  // the search-step feature.
  std::vector<std::vector<double>> rows;
  std::vector<double> targets;
  for (int i = 1; i <= 8; ++i) {
    rows.push_back({static_cast<double>(i), 0.0, 1.0});
    targets.push_back(5.0 * i + 800.0);
  }
  LeastSquaresOptions options;
  options.drop_degenerate_columns = true;
  StatusOr<LeastSquaresFit> fit = FitLeastSquares(rows, targets, options);
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();
  ASSERT_EQ(fit->dropped_columns, std::vector<int>{1});
  EXPECT_NEAR(fit->coefficients[0], 5.0, 1e-9);
  EXPECT_EQ(fit->coefficients[1], 0.0);
  EXPECT_NEAR(fit->coefficients[2], 800.0, 1e-9);
}

TEST(FitLeastSquaresTest, SingleFeatureFitsSlope) {
  std::vector<std::vector<double>> rows = {{1.0}, {2.0}, {3.0}};
  std::vector<double> targets = {3.0, 6.0, 9.0};
  StatusOr<LeastSquaresFit> fit = FitLeastSquares(rows, targets);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit->coefficients[0], 3.0, 1e-12);
}

TEST(FitLeastSquaresTest, RejectsDegenerateInputs) {
  // Empty.
  EXPECT_EQ(FitLeastSquares({}, {}).status().code(),
            StatusCode::kInvalidArgument);
  // Row/target count mismatch.
  EXPECT_EQ(FitLeastSquares({{1.0}}, {1.0, 2.0}).status().code(),
            StatusCode::kInvalidArgument);
  // Ragged rows.
  EXPECT_EQ(
      FitLeastSquares({{1.0, 2.0}, {1.0}}, {1.0, 2.0}).status().code(),
      StatusCode::kInvalidArgument);
  // Zero-column rows.
  EXPECT_EQ(FitLeastSquares({{}, {}}, {1.0, 2.0}).status().code(),
            StatusCode::kInvalidArgument);
  // Non-finite feature and target.
  EXPECT_EQ(FitLeastSquares({{std::nan("")}}, {1.0}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(FitLeastSquares({{1.0}}, {HUGE_VAL}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(FitLeastSquaresTest, AllZeroFeaturesNeverProduceNaN) {
  LeastSquaresOptions drop;
  drop.drop_degenerate_columns = true;
  // Every column degenerate: strict fails, drop mode fails too (nothing
  // left to fit) — but neither may return NaNs via an OK result.
  StatusOr<LeastSquaresFit> strict =
      FitLeastSquares({{0.0, 0.0}, {0.0, 0.0}}, {1.0, 2.0});
  EXPECT_FALSE(strict.ok());
  StatusOr<LeastSquaresFit> dropped =
      FitLeastSquares({{0.0, 0.0}, {0.0, 0.0}}, {1.0, 2.0}, drop);
  if (dropped.ok()) {
    for (double c : dropped->coefficients) EXPECT_TRUE(std::isfinite(c));
  }
}

// ---------------------------------------------------------------------------
// CalibratedCostModel semantics.
// ---------------------------------------------------------------------------

TEST(CalibratedCostModelTest, DegradesToPaperModelWithUnitCoefficients) {
  CalibratedCostModel model({/*per_row=*/1.0, /*per_node=*/0.0,
                             /*fixed=*/0.0});
  PaperCostModel paper;
  EXPECT_DOUBLE_EQ(model.ScanCost(1000.0), paper.ScanCost(1000.0));
  EXPECT_DOUBLE_EQ(model.IndexCost(1000.0, 8.0),
                   paper.IndexCost(1000.0, 8.0));
  EXPECT_DOUBLE_EQ(model.IndexCost(1.0, 1.0), 1.0);
}

// The node term is the engine's index.search_steps per probe: bit_width of
// the index's entry count, whatever the prefix's selectivity.
TEST(CalibratedCostModelTest, SearchStepsAreTheBitWidthOfTheViewRows) {
  const CalibratedCostModel steps_only({/*per_row=*/0.0, /*per_node=*/1.0,
                                        /*fixed=*/0.0});
  for (uint64_t n : {1u, 2u, 3u, 4095u, 4096u, 250238u}) {
    const double rows = static_cast<double>(n);
    const double expected = static_cast<double>(std::bit_width(n));
    EXPECT_EQ(CalibratedCostModel::EstimatedSearchSteps(rows), expected)
        << n;
    for (double prefix_rows : {1.0, 2.0, rows, 10.0 * rows}) {
      EXPECT_EQ(steps_only.IndexCost(rows, prefix_rows), expected)
          << n << " rows, " << prefix_rows << " prefix rows";
    }
  }
  EXPECT_EQ(CalibratedCostModel::EstimatedSearchSteps(0.0), 0.0);
}

TEST(CalibratedCostModelTest, CostIsFlooredPositive) {
  CalibratedCostModel model({0.0, 0.0, 0.0});
  EXPECT_GT(model.ScanCost(0.0), 0.0);
  EXPECT_GT(model.IndexCost(1.0, 100.0), 0.0);
}

// ---------------------------------------------------------------------------
// Golden regression: dataset schema + pinned fitted coefficients.
// ---------------------------------------------------------------------------

class CalibrationPipelineTest : public ::testing::Test {
 protected:
  static CalibrationRunOptions RunOptions() {
    CalibrationRunOptions options;
    options.max_queries = 24;
    options.repeats = 1;
    options.seed = 42;
    return options;
  }
  static FactTable MakeFact() {
    TpcdScaledConfig config;
    config.rows = 4'000;
    return GenerateTpcdScaledFacts(config);
  }
};

TEST_F(CalibrationPipelineTest, DatasetSchemaAndDeterministicFeatures) {
  FactTable fact = MakeFact();
  StatusOr<CalibrationDataset> dataset =
      RunCalibration(fact, RunOptions());
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
  EXPECT_EQ(dataset->version, kCalibrationDatasetVersion);
  EXPECT_EQ(dataset->num_dimensions, 3);
  EXPECT_EQ(dataset->fact_rows, fact.num_rows());
  // 24 shapes x 3 catalog phases.
  ASSERT_EQ(dataset->probes.size(), 72u);
  size_t raw_probes = 0;
  bool any_index_plan = false;
  for (const CalibrationProbe& p : dataset->probes) {
    EXPECT_TRUE(p.phase == "raw" || p.phase == "view" || p.phase == "index")
        << p.phase;
    if (p.phase == "raw") {
      ++raw_probes;
      // With no structures, the only plan is the full fact scan: the
      // touched-rows feature is pinned exactly.
      EXPECT_EQ(p.touched_rows, fact.num_rows());
      EXPECT_FALSE(p.used_index);
    }
    if (p.used_index) any_index_plan = true;
  }
  EXPECT_EQ(raw_probes, 24u);
  // The index phase must exercise covered access somewhere, or the sweep
  // is not varying the axis it exists to vary.
  EXPECT_TRUE(any_index_plan);

  const std::string json = dataset->ToJson();
  EXPECT_NE(json.find("\"schema\": \"olapidx-calibration\""),
            std::string::npos);
  EXPECT_NE(json.find("\"version\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"probes\""), std::string::npos);
  EXPECT_NE(json.find("\"search_steps\""), std::string::npos);

  // Same options -> bit-identical dataset (and therefore JSON).
  StatusOr<CalibrationDataset> again = RunCalibration(fact, RunOptions());
  ASSERT_TRUE(again.ok());
  std::string json2 = again->ToJson();
  // Only wall_ns may differ between runs; scrub it for the comparison.
  auto scrub = [](std::string s) {
    for (size_t at = s.find("\"wall_ns\""); at != std::string::npos;
         at = s.find("\"wall_ns\"", at + 1)) {
      size_t end = s.find(',', at);
      s.erase(at, end - at);
    }
    return s;
  };
  EXPECT_EQ(scrub(json), scrub(json2));
}

TEST_F(CalibrationPipelineTest, GoldenFitRecoversSimulatedTruth) {
  FactTable fact = MakeFact();
  StatusOr<CalibrationDataset> dataset =
      RunCalibration(fact, RunOptions());
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
  StatusOr<CalibrationFitResult> fit =
      FitCalibratedModel(*dataset, CalibrationTarget::kSimulatedNs);
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();
  EXPECT_EQ(fit->probes, 72u);
#if defined(OLAPIDX_METRICS_ENABLED)
  // The simulated target is an exact linear function of the measured
  // features, so the fit recovers kSimulatedTruth to solver precision —
  // the golden pin for the whole measure->fit pipeline.
  EXPECT_EQ(dataset->metrics_enabled, true);
  EXPECT_TRUE(fit->dropped_columns.empty());
  EXPECT_NEAR(fit->coefficients.per_row, kSimulatedTruth.per_row, 1e-4);
  EXPECT_NEAR(fit->coefficients.per_node, kSimulatedTruth.per_node, 1e-3);
  EXPECT_NEAR(fit->coefficients.fixed, kSimulatedTruth.fixed, 1e-2);
#else
  // Metrics compiled out: the search-step column is structurally zero, the
  // fitter must drop it (graceful degradation) and still recover the
  // remaining coefficients exactly.
  EXPECT_EQ(dataset->metrics_enabled, false);
  ASSERT_EQ(fit->dropped_columns, std::vector<int>{1});
  EXPECT_EQ(fit->coefficients.per_node, 0.0);
  EXPECT_NEAR(fit->coefficients.per_row, kSimulatedTruth.per_row, 1e-4);
  EXPECT_NEAR(fit->coefficients.fixed, kSimulatedTruth.fixed, 1e-2);
#endif
  EXPECT_NEAR(fit->r_squared, 1.0, 1e-6);
}

TEST_F(CalibrationPipelineTest, RejectsEmptyFactAndBadOptions) {
  CubeSchema schema(std::vector<Dimension>{{"a", 4}, {"b", 4}});
  FactTable empty(schema);
  EXPECT_EQ(RunCalibration(empty).status().code(),
            StatusCode::kInvalidArgument);
  FactTable fact = MakeFact();
  CalibrationRunOptions bad = RunOptions();
  bad.repeats = 0;
  EXPECT_EQ(RunCalibration(fact, bad).status().code(),
            StatusCode::kInvalidArgument);
  CalibrationDataset none;
  EXPECT_EQ(FitCalibratedModel(none, CalibrationTarget::kSimulatedNs)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// The paired-selection verdict: never worse on its own metric.
// ---------------------------------------------------------------------------

TEST_F(CalibrationPipelineTest, CalibratedSelectionNeverWorseOnOwnMetric) {
  FactTable fact = MakeFact();
  const CubeSchema& schema = fact.schema();
  ViewSizes sizes = ExactViewSizes(fact);
  CubeLattice lattice(schema);
  Workload workload = ZipfSliceQueries(lattice, 1.0, 7);
  AdvisorConfig config;
  config.space_budget = 2.0 * sizes.SizeOf(schema.AllAttributes());

  // Several deliberately different coefficient regimes, including one
  // dominated by fixed overhead (where the paper's pick order is most
  // wrong) — the invariant must hold in every one.
  const CalibrationCoefficients regimes[] = {
      {5.0, 120.0, 800.0},
      {1.0, 0.0, 0.0},
      {0.001, 50.0, 100000.0},
      {10.0, 0.0, 1.0},
  };
  for (const CalibrationCoefficients& coefficients : regimes) {
    auto model = std::make_shared<CalibratedCostModel>(coefficients);
    StatusOr<PairedSelectionResult> paired =
        RunPairedSelection(schema, sizes, workload, config, model);
    ASSERT_TRUE(paired.ok()) << paired.status().ToString();
    EXPECT_LE(paired->calibrated_under_calibrated.total,
              paired->paper_under_calibrated.total)
        << "per_row=" << coefficients.per_row;
    EXPECT_GE(paired->paper_regret, 0.0);
    // The paper design evaluated under the paper metric must in turn be
    // at least as good as the calibrated design under the paper metric:
    // both selections saw the same candidates.
    EXPECT_LE(paired->paper_under_paper.total,
              paired->calibrated_under_paper.total * (1.0 + 1e-9));
  }
  EXPECT_EQ(RunPairedSelection(schema, sizes, workload, config, nullptr)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(CalibrationPipelineTest, ReplayDesignExecutesWholeWorkload) {
  FactTable fact = MakeFact();
  const CubeSchema& schema = fact.schema();
  ViewSizes sizes = ExactViewSizes(fact);
  CubeLattice lattice(schema);
  Workload workload = ZipfSliceQueries(lattice, 1.0, 7);
  AdvisorConfig config;
  config.space_budget = 2.0 * sizes.SizeOf(schema.AllAttributes());
  auto model =
      std::make_shared<CalibratedCostModel>(CalibrationCoefficients{});
  StatusOr<PairedSelectionResult> paired =
      RunPairedSelection(schema, sizes, workload, config, model);
  ASSERT_TRUE(paired.ok());
  StatusOr<ReplayResult> replay =
      ReplayDesign(fact, paired->calibrated_design, workload);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->queries, workload.size());
  EXPECT_GT(replay->rows_processed, 0u);
}

TEST_F(CalibrationPipelineTest, ReplayDesignBatchedExpandsAndCoalesces) {
  FactTable fact = MakeFact();
  const CubeSchema& schema = fact.schema();
  ViewSizes sizes = ExactViewSizes(fact);
  CubeLattice lattice(schema);
  // Integer counts, as a parsed query log would carry: each query's
  // frequency expands into that many identical replay requests.
  const Workload source = ZipfSliceQueries(lattice, 1.0, 7);
  Workload workload;
  uint64_t expected_requests = 0;
  size_t rank = 0;
  for (const WeightedQuery& wq : source.queries()) {
    const double count = static_cast<double>(1 + (rank++ % 5));
    workload.Add(wq.query, count);
    expected_requests += static_cast<uint64_t>(count);
  }
  AdvisorConfig config;
  config.space_budget = 2.0 * sizes.SizeOf(schema.AllAttributes());
  auto model =
      std::make_shared<CalibratedCostModel>(CalibrationCoefficients{});
  StatusOr<PairedSelectionResult> paired =
      RunPairedSelection(schema, sizes, workload, config, model);
  ASSERT_TRUE(paired.ok());
  StatusOr<BatchReplayResult> replay = ReplayDesignBatched(
      fact, paired->calibrated_design, workload, /*batch_size=*/64);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->requests, expected_requests);
  EXPECT_EQ(replay->batches, (expected_requests + 63) / 64);
  // Repeats of the same logged query coalesce inside each batch.
  EXPECT_LT(replay->unique_requests, replay->requests);
  EXPECT_GT(replay->logical_rows, 0u);
  EXPECT_LE(replay->rows_decoded, replay->logical_rows);

  // Invalid inputs are rejected up front.
  EXPECT_EQ(ReplayDesignBatched(fact, paired->calibrated_design, workload,
                                /*batch_size=*/0)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace olapidx
