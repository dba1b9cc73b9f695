// CalibratedCostModel: the measured-engine counterpart of the paper's
// linear model, behind the same CostModel seam.
//
// The paper costs a plan purely by rows touched (c = |C|/|E|). The real
// executor also pays for the binary search that finds a probe's first
// index entry and a fixed per-query overhead (planning, group-accumulator
// setup), so the calibrated model is the affine form
//
//     cost = per_row · touched_rows + per_node · search_steps + fixed
//
// with coefficients fitted by deterministic least squares over a
// calibration dataset of measured probes (calibration/calibrator.h). The
// features the model needs at *planning* time are estimated from the same
// quantities the builders already hoist: touched_rows = |C|/|E| and
// search_steps = ⌈log2(|V| + 1)⌉, exactly the steps the engine counts for
// a probe of an index over |V| entries (engine/view_index.h). With
// per_node = fixed = 0 and per_row = 1 the model degrades to the paper's —
// that is also the graceful fallback when metrics are compiled out and the
// search-step column is degenerate.
//
// The fitter lives here too: plain normal equations solved by Gaussian
// elimination with partial pivoting, no external dependencies, bitwise
// deterministic for a fixed input. Rank-deficient inputs either fail with
// FailedPrecondition (strict) or drop the degenerate columns and refit
// (drop_degenerate_columns), never returning NaNs.

#ifndef OLAPIDX_COST_CALIBRATED_COST_MODEL_H_
#define OLAPIDX_COST_CALIBRATED_COST_MODEL_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "cost/cost_model.h"

namespace olapidx {

// ---------------------------------------------------------------------------
// Deterministic least squares.
// ---------------------------------------------------------------------------

struct LeastSquaresOptions {
  // When a feature column is (near-)linearly dependent on the others —
  // all-zero search steps with metrics compiled out being the canonical
  // case — drop it (coefficient 0, recorded in dropped_columns) and refit
  // instead of failing. Off = strict: such inputs return
  // FailedPrecondition.
  bool drop_degenerate_columns = false;
  // Relative pivot threshold below which a column counts as degenerate.
  double pivot_epsilon = 1e-9;
};

struct LeastSquaresFit {
  // One coefficient per input feature column; dropped columns get 0.
  std::vector<double> coefficients;
  // Ascending indices of columns dropped as degenerate (empty in strict
  // mode, which fails instead).
  std::vector<int> dropped_columns;
  // Residual sum of squares and R² against the fitted targets.
  double rss = 0.0;
  double r_squared = 0.0;
};

// Fits targets ≈ rows · coefficients by normal equations. Every row must
// have the same number of columns and every value must be finite; at least
// one row and one column are required (InvalidArgument otherwise). The
// result is identical across platforms for identical input bits: the
// elimination order is fixed and no randomness is involved.
StatusOr<LeastSquaresFit> FitLeastSquares(
    const std::vector<std::vector<double>>& rows,
    const std::vector<double>& targets,
    const LeastSquaresOptions& options = {});

// ---------------------------------------------------------------------------
// The fitted model.
// ---------------------------------------------------------------------------

struct CalibrationCoefficients {
  double per_row = 1.0;   // cost per row touched
  double per_node = 0.0;  // cost per binary-search step (one node of the
                          // index's implicit search tree)
  double fixed = 0.0;     // per-query overhead
};

class CalibratedCostModel final : public CostModel {
 public:
  explicit CalibratedCostModel(CalibrationCoefficients coefficients);

  double ScanCost(double view_rows) const override;
  double IndexCost(double view_rows, double prefix_rows) const override;
  const char* name() const override { return "calibrated"; }

  const CalibrationCoefficients& coefficients() const {
    return coefficients_;
  }

  // Search steps of one probe of an index over `view_rows` entries:
  // ⌈log2(view_rows + 1)⌉, which for n entries is std::bit_width(n), the
  // engine's index.search_steps per probe. It does not depend on how many
  // rows the probe then touches: their walk is priced by per_row.
  static double EstimatedSearchSteps(double view_rows);

  // ---- Persistence: "olapidx-costmodel v2" (see core/serialize.h for the
  // repo's line-format conventions): the header, then one line each for
  // per_row, per_node and fixed, and nothing after. Doubles are written as
  // C99 hexfloats (%a), so Serialize → Parse reproduces every coefficient
  // bit for bit. A v1 file is rejected: its per_node was fitted to B-tree
  // node touches and must be refitted.
  std::string Serialize() const;
  static StatusOr<CalibratedCostModel> Parse(const std::string& text);
  Status Save(const std::string& path) const;
  // InvalidArgument for unreadable or malformed files.
  static StatusOr<CalibratedCostModel> Load(const std::string& path);

 private:
  CalibrationCoefficients coefficients_;
};

}  // namespace olapidx

#endif  // OLAPIDX_COST_CALIBRATED_COST_MODEL_H_
