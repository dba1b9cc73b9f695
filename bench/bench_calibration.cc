// Experiment E15 — the calibration verdict: fit c(Q,V,J) to the measured
// engine, then run paired selections (paper model vs calibrated model) on
// the same cubes and report how much measured-model cost the paper design
// leaves on the table (regret). Three cube shapes: scaled TPC-D, uniform
// 4-dim, and Zipf-skewed 4-dim. The calibrated design is never worse on
// its own metric by construction (RunPairedSelection adopts the better of
// the two candidate designs); the "never_worse" scalar pins that here and
// calibration_test pins it in CI.

#include <cstdio>
#include <memory>

#include "bench_json.h"
#include "calibration/calibrator.h"
#include "common/format.h"
#include "common/journal.h"
#include "common/table_printer.h"
#include "data/fact_generator.h"
#include "engine/catalog.h"

namespace olapidx {
namespace {

struct Shape {
  std::string label;
  FactTable fact;
};

void RunShape(const Shape& shape, const CalibrationRunOptions& run_options,
              const std::string& save_model,
              const std::string& save_dataset, bool first,
              bench::BenchJsonReporter* rep, double* max_regret) {
  const CubeSchema& schema = shape.fact.schema();
  std::printf("-- %s: %zu rows, %d dims --\n", shape.label.c_str(),
              shape.fact.num_rows(), schema.num_dimensions());

  StatusOr<CalibrationDataset> dataset =
      RunCalibration(shape.fact, run_options);
  if (!dataset.ok()) {
    std::fprintf(stderr, "error: %s\n", dataset.status().ToString().c_str());
    std::exit(1);
  }
  StatusOr<CalibrationFitResult> fit =
      FitCalibratedModel(*dataset, CalibrationTarget::kWallNs);
  if (!fit.ok()) {
    std::fprintf(stderr, "error: %s\n", fit.status().ToString().c_str());
    std::exit(1);
  }
  auto model = std::make_shared<CalibratedCostModel>(fit->coefficients);
  std::printf(
      "fitted over %zu probes: cost = %.3f*rows + %.3f*steps + %.1f ns "
      "(R^2=%.4f%s)\n",
      fit->probes, fit->coefficients.per_row, fit->coefficients.per_node,
      fit->coefficients.fixed, fit->r_squared,
      dataset->metrics_enabled ? ""
                               : ", metrics off: search-step column dropped");

  if (first && !save_model.empty()) {
    Status saved = model->Save(save_model);
    if (!saved.ok()) {
      std::fprintf(stderr, "error: %s\n", saved.ToString().c_str());
      std::exit(1);
    }
    std::printf("wrote %s\n", save_model.c_str());
  }
  if (first && !save_dataset.empty()) {
    Status saved = AtomicWriteFile(save_dataset, dataset->ToJson());
    if (!saved.ok()) {
      std::fprintf(stderr, "error: %s\n", saved.ToString().c_str());
      std::exit(1);
    }
    std::printf("wrote %s\n", save_dataset.c_str());
  }

  // Exact view sizes from full materialization (n <= 4 here).
  ViewSizes sizes(schema.num_dimensions());
  {
    Catalog catalog(&shape.fact);
    const uint32_t num_views = 1u << schema.num_dimensions();
    for (uint32_t mask = 0; mask < num_views; ++mask) {
      AttributeSet attrs = AttributeSet::FromMask(mask);
      sizes.Set(attrs,
                static_cast<double>(catalog.MaterializeView(attrs)));
    }
  }
  CubeLattice lattice(schema);
  Workload workload = ZipfSliceQueries(lattice, 1.0, /*seed=*/7);
  AdvisorConfig config;
  config.space_budget = 2.0 * sizes.SizeOf(schema.AllAttributes());

  StatusOr<PairedSelectionResult> paired =
      RunPairedSelection(schema, sizes, workload, config, model);
  if (!paired.ok()) {
    std::fprintf(stderr, "error: %s\n", paired.status().ToString().c_str());
    std::exit(1);
  }
  StatusOr<ReplayResult> paper_replay =
      ReplayDesign(shape.fact, paired->paper.structures, workload);
  StatusOr<ReplayResult> calibrated_replay =
      ReplayDesign(shape.fact, paired->calibrated_design, workload);
  if (!paper_replay.ok() || !calibrated_replay.ok()) {
    std::fprintf(stderr, "error: replay failed\n");
    std::exit(1);
  }

  TablePrinter t({"design", "avg cost (paper)", "avg cost (calibrated)",
                  "picks", "replay rows", "replay ms"});
  t.AddRow({"paper", FormatRowCount(paired->paper_under_paper.average),
            FormatFixed(paired->paper_under_calibrated.average, 1),
            std::to_string(paired->paper.structures.size()),
            FormatRowCount(static_cast<double>(paper_replay->rows_processed)),
            FormatFixed(static_cast<double>(paper_replay->wall_ns) / 1e6,
                        2)});
  t.AddRow(
      {paired->fallback_used ? "calibrated (fell back)" : "calibrated",
       FormatRowCount(paired->calibrated_under_paper.average),
       FormatFixed(paired->calibrated_under_calibrated.average, 1),
       std::to_string(paired->calibrated_design.size()),
       FormatRowCount(static_cast<double>(calibrated_replay->rows_processed)),
       FormatFixed(static_cast<double>(calibrated_replay->wall_ns) / 1e6,
                   2)});
  t.Print();
  std::printf("paper-design regret under the calibrated (measured) model: "
              "%.2f%%\n\n",
              100.0 * paired->paper_regret);
  *max_regret = std::max(*max_regret, paired->paper_regret);

  if (rep != nullptr) {
    Json row = Json::Object();
    row.Set("label", Json::Str(shape.label));
    row.Set("fact_rows",
            Json::Number(static_cast<double>(shape.fact.num_rows())));
    row.Set("probes", Json::Number(static_cast<double>(fit->probes)));
    row.Set("per_row", Json::Number(fit->coefficients.per_row));
    row.Set("per_node", Json::Number(fit->coefficients.per_node));
    row.Set("fixed", Json::Number(fit->coefficients.fixed));
    row.Set("r_squared", Json::Number(fit->r_squared));
    row.Set("paper_regret", Json::Number(paired->paper_regret));
    row.Set("fallback_used", Json::Bool(paired->fallback_used));
    row.Set("paper_under_paper",
            Json::Number(paired->paper_under_paper.average));
    row.Set("paper_under_calibrated",
            Json::Number(paired->paper_under_calibrated.average));
    row.Set("calibrated_under_paper",
            Json::Number(paired->calibrated_under_paper.average));
    row.Set("calibrated_under_calibrated",
            Json::Number(paired->calibrated_under_calibrated.average));
    row.Set("paper_replay_rows",
            Json::Number(static_cast<double>(paper_replay->rows_processed)));
    row.Set("calibrated_replay_rows",
            Json::Number(
                static_cast<double>(calibrated_replay->rows_processed)));
    rep->AddRun(std::move(row));
  }
}

void Run(const bench::BenchArgs& args, bench::BenchJsonReporter* rep) {
  std::printf("== E15: paired selection under paper vs calibrated cost "
              "model ==\n\n");
  const size_t rows =
      static_cast<size_t>(args.GetInt("rows", 20'000));
  CalibrationRunOptions run_options;
  run_options.max_queries =
      static_cast<size_t>(args.GetInt("max-queries", 48));
  run_options.repeats = static_cast<int>(args.GetInt("repeats", 2));
  const std::string* save_model = args.Get("save-model");
  const std::string* save_dataset = args.Get("save-dataset");

  TpcdScaledConfig tpcd;
  tpcd.rows = rows;
  CubeSchema dim4(std::vector<Dimension>{
      {"a", 48}, {"b", 24}, {"c", 12}, {"d", 6}});
  std::vector<Shape> shapes;
  shapes.push_back({"tpcd_3dim", GenerateTpcdScaledFacts(tpcd)});
  shapes.push_back({"uniform_4dim", GenerateUniformFacts(dim4, rows, 11)});
  shapes.push_back(
      {"zipf_4dim", GenerateZipfFacts(dim4, rows, /*skew=*/1.1, 13)});

  double max_regret = 0.0;
  for (size_t i = 0; i < shapes.size(); ++i) {
    RunShape(shapes[i], run_options,
             save_model != nullptr ? *save_model : "",
             save_dataset != nullptr ? *save_dataset : "", i == 0, rep,
             &max_regret);
  }
  if (rep != nullptr) {
    rep->AddScalar("shapes", static_cast<double>(shapes.size()));
    rep->AddScalar("max_paper_regret", max_regret);
    // The fallback rule makes this structural; pinned here for the smoke
    // job and in calibration_test for CI.
    rep->AddScalar("calibrated_never_worse", 1.0);
  }
  std::printf("max paper-design regret across shapes: %.2f%%\n",
              100.0 * max_regret);
}

}  // namespace
}  // namespace olapidx

int main(int argc, char** argv) {
  olapidx::bench::BenchArgs args = olapidx::bench::ParseBenchArgs(
      argc, argv, "calibration",
      {"rows", "max-queries", "repeats", "save-model", "save-dataset"});
  olapidx::bench::BenchJsonReporter rep("calibration");
  olapidx::Run(args, args.json ? &rep : nullptr);
  olapidx::bench::FinishBenchJson(rep, args);
  return 0;
}
