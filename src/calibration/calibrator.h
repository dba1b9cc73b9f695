// The cost-model calibration pipeline: sweep → measure → fit → verdict.
//
//   1. RunCalibration drives the deterministic shape sweep
//      (workload/calibration_workload.h) through the real engine in three
//      catalog phases — no structures (raw scans), all views materialized
//      (view scans of every size), views + one fat index per view (covered
//      and partially covered probes) — and records one CalibrationProbe per
//      execution under MetricsRunScope: rows touched, index search steps,
//      scan/index row classification, result rows, wall time.
//   2. CalibrationDataset::ToJson serializes the probes as the
//      schema-versioned "olapidx-calibration" v2 JSON document benches
//      archive next to their reports.
//   3. FitCalibratedModel runs the deterministic least-squares fitter over
//      the features to produce CalibrationCoefficients for a
//      CalibratedCostModel. The target is either measured wall time
//      (kWallNs — the real calibration, machine-dependent) or a synthetic
//      cost computed from the measured features with pinned ground-truth
//      coefficients (kSimulatedNs — exactly recoverable, which is what the
//      golden regression test pins in CI).
//   4. RunPairedSelection is the verdict harness: select a physical design
//      under the paper model and under the calibrated model on the same
//      cube, then evaluate BOTH designs under BOTH models. The calibrated
//      side adopts whichever of the two designs scores better on the
//      calibrated metric (fallback_used reports when greedy-under-
//      calibrated lost to the paper design on its own metric), so by
//      construction the calibrated design is never worse on the metric it
//      optimizes — the sanity invariant bench_calibration reports and
//      calibration_test pins.

#ifndef OLAPIDX_CALIBRATION_CALIBRATOR_H_
#define OLAPIDX_CALIBRATION_CALIBRATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/advisor.h"
#include "cost/calibrated_cost_model.h"
#include "engine/fact_table.h"
#include "lattice/schema.h"
#include "workload/workload.h"

namespace olapidx {

// ---------------------------------------------------------------------------
// Feature extraction.
// ---------------------------------------------------------------------------

// One calibration query executed against one catalog phase.
struct CalibrationProbe {
  SliceQuery query;
  // Catalog phase: "raw" (no structures), "view" (all views, no indexes),
  // "index" (views + one fat index each).
  std::string phase;
  // ExecutionStats.rows_processed — deterministic, metrics-independent.
  uint64_t touched_rows = 0;
  // Deltas of the engine's counters across the execution; all zero when
  // metrics are compiled out (OLAPIDX_METRICS=OFF).
  uint64_t search_steps = 0;  // index.search_steps
  uint64_t scan_rows = 0;    // rows_raw_scanned + rows_view_scanned
  uint64_t index_rows = 0;   // rows_index_probed
  uint64_t result_rows = 0;  // groups in the query result
  uint64_t wall_ns = 0;      // minimum over the run's repeats
  bool used_index = false;   // the planner chose an index path
};

// Version 2: the index feature is search_steps (binary-search steps).
inline constexpr int kCalibrationDatasetVersion = 2;

struct CalibrationDataset {
  int version = kCalibrationDatasetVersion;
  int num_dimensions = 0;
  uint64_t fact_rows = 0;
  // Whether the binary was built with OLAPIDX_METRICS=ON; when false the
  // counter-derived features are structurally zero and the fitter must
  // drop the search-step column (graceful degradation).
  bool metrics_enabled = false;
  uint64_t seed = 0;
  std::vector<CalibrationProbe> probes;

  // {"schema": "olapidx-calibration", "version": 2, ...} with one object
  // per probe carrying exactly the feature fields above.
  std::string ToJson() const;
};

struct CalibrationRunOptions {
  // Cap on sweep shapes per phase (0 = all 3^n).
  size_t max_queries = 48;
  // Executions per probe; wall_ns keeps the minimum (the repeats exist
  // only to de-noise wall time — every other feature is deterministic).
  int repeats = 1;
  // Seed for selection-value draws. Values are drawn from actual fact
  // rows, so every selection matches at least one row.
  uint64_t seed = 42;
};

// Executes the sweep and returns the measured dataset. InvalidArgument for
// an empty fact table or out-of-range options.
StatusOr<CalibrationDataset> RunCalibration(
    const FactTable& fact, const CalibrationRunOptions& options = {});

// ---------------------------------------------------------------------------
// Fitting.
// ---------------------------------------------------------------------------

enum class CalibrationTarget {
  kWallNs,       // measured wall time — the real calibration
  kSimulatedNs,  // kSimulatedTruth applied to the measured features —
                 // deterministic, used by the golden regression test
};

// Ground truth for kSimulatedNs: cost = 5·touched + 120·steps + 800.
inline constexpr CalibrationCoefficients kSimulatedTruth{5.0, 120.0, 800.0};

struct CalibrationFitResult {
  CalibrationCoefficients coefficients;
  // Feature columns dropped as degenerate: 0 = touched_rows,
  // 1 = search_steps (always dropped when metrics are compiled out),
  // 2 = intercept.
  std::vector<int> dropped_columns;
  double r_squared = 0.0;
  size_t probes = 0;
};

// Fits cost ≈ per_row·touched_rows + per_node·search_steps + fixed over
// the dataset by deterministic least squares, dropping degenerate columns
// (all-zero search steps under OLAPIDX_METRICS=OFF) and clamping negative
// fitted coefficients to 0 so the resulting model stays monotone in every
// feature. InvalidArgument for an empty dataset.
StatusOr<CalibrationFitResult> FitCalibratedModel(
    const CalibrationDataset& dataset, CalibrationTarget target);

// ---------------------------------------------------------------------------
// The paired-selection verdict harness.
// ---------------------------------------------------------------------------

struct DesignCost {
  double total = 0.0;    // frequency-weighted Σ over the workload
  double average = 0.0;  // total / total frequency
};

// Cost of answering `workload` with exactly the structures in `design`
// under `model`: per query, the cheapest of the default path
// (ScanCost(raw_scan_penalty × base rows)) and every answerable selected
// structure (ScanCost of a view, IndexCost through an index's longest
// selection-only prefix).
DesignCost DesignCostUnderModel(const CubeSchema& schema,
                                const ViewSizes& sizes,
                                const Workload& workload,
                                const std::vector<RecommendedStructure>& design,
                                const CostModel& model,
                                double raw_scan_penalty = 1.0);

struct PairedSelectionResult {
  Recommendation paper;       // selected under the paper model
  Recommendation calibrated;  // selected under the calibrated model
  // The design the calibrated side finally adopts: the better of the two
  // recommendations on the calibrated metric (greedy is not optimal, so
  // optimizing the calibrated objective can still lose to the paper
  // design — the harness then falls back and flags it).
  std::vector<RecommendedStructure> calibrated_design;
  bool fallback_used = false;
  // Both designs under both metrics.
  DesignCost paper_under_paper;
  DesignCost paper_under_calibrated;
  DesignCost calibrated_under_paper;
  DesignCost calibrated_under_calibrated;
  // paper_under_calibrated.average / calibrated_under_calibrated.average
  // − 1: how much measured-model cost the paper design leaves on the
  // table. ≥ 0 by the fallback rule.
  double paper_regret = 0.0;
};

// Runs the same selection config twice — once with base_options as given
// (paper model) and once with base_options.cost_model = `model` — and
// evaluates both designs under both models. `model` must outlive the call.
StatusOr<PairedSelectionResult> RunPairedSelection(
    const CubeSchema& schema, const ViewSizes& sizes,
    const Workload& workload, const AdvisorConfig& config,
    std::shared_ptr<const CalibratedCostModel> model,
    const CubeGraphOptions& base_options = {});

// ---------------------------------------------------------------------------
// Measured replay.
// ---------------------------------------------------------------------------

struct ReplayResult {
  uint64_t queries = 0;
  uint64_t rows_processed = 0;  // Σ ExecutionStats.rows_processed
  uint64_t wall_ns = 0;
};

// Materializes `design` over `fact` (the view of every pick, then its
// indexes) and executes each workload query once with selection values
// drawn deterministically from fact rows — the ground-truth measurement
// bench_calibration reports next to the model-predicted design costs.
StatusOr<ReplayResult> ReplayDesign(
    const FactTable& fact, const std::vector<RecommendedStructure>& design,
    const Workload& workload, uint64_t seed = 42);

struct BatchReplayResult {
  uint64_t requests = 0;        // replayed requests (frequencies expanded)
  uint64_t unique_requests = 0; // after the batch's identical-request
                                // coalescing, summed over batches
  uint64_t batches = 0;
  uint64_t rows_decoded = 0;    // physical rows the batched path touched
  uint64_t logical_rows = 0;    // what serial execution would have touched
  uint64_t bytes_scanned = 0;
  uint64_t wall_ns = 0;
};

// The serving-path counterpart of ReplayDesign: materializes `design`,
// compresses every view to its columnar store, expands each workload
// query to round(frequency) identical requests (at least one; the stream
// is proportionally thinned when it would exceed 65536 requests), and
// executes the stream through BatchExecutor in batches of `batch_size`.
// Selection values are drawn once per distinct query, from fact rows —
// the repeats model the same logged slice asked again, which is exactly
// what the batch path coalesces. advisor_cli --replay prints this next
// to the model-predicted design cost.
StatusOr<BatchReplayResult> ReplayDesignBatched(
    const FactTable& fact, const std::vector<RecommendedStructure>& design,
    const Workload& workload, size_t batch_size = 256,
    size_t num_threads = 1, uint64_t seed = 42);

}  // namespace olapidx

#endif  // OLAPIDX_CALIBRATION_CALIBRATOR_H_
