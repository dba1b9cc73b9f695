#include "cost/calibrated_cost_model.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/check.h"
#include "common/journal.h"

namespace olapidx {

namespace {

// Costs feed benefit computations that assume strictly positive plan
// costs; a degenerate fit (all coefficients ~0) must not emit 0 or a
// negative value.
constexpr double kMinCost = 1e-6;

bool AllFinite(const std::vector<double>& values) {
  for (double v : values) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

// Solves the dense symmetric system A·x = b in place by Gaussian
// elimination with partial pivoting. Returns the index of the first
// elimination step whose pivot falls below `pivot_floor` (a degenerate
// variable), or -1 on success with the solution in `x`.
int SolveInPlace(std::vector<std::vector<double>>& a, std::vector<double>& b,
                 double pivot_floor, std::vector<double>* x) {
  const int k = static_cast<int>(b.size());
  for (int j = 0; j < k; ++j) {
    int pivot = j;
    for (int r = j + 1; r < k; ++r) {
      if (std::fabs(a[static_cast<size_t>(r)][static_cast<size_t>(j)]) >
          std::fabs(a[static_cast<size_t>(pivot)][static_cast<size_t>(j)])) {
        pivot = r;
      }
    }
    if (std::fabs(a[static_cast<size_t>(pivot)][static_cast<size_t>(j)]) <=
        pivot_floor) {
      return j;
    }
    if (pivot != j) {
      std::swap(a[static_cast<size_t>(pivot)], a[static_cast<size_t>(j)]);
      std::swap(b[static_cast<size_t>(pivot)], b[static_cast<size_t>(j)]);
    }
    for (int r = j + 1; r < k; ++r) {
      const double f = a[static_cast<size_t>(r)][static_cast<size_t>(j)] /
                       a[static_cast<size_t>(j)][static_cast<size_t>(j)];
      if (f == 0.0) continue;
      for (int c = j; c < k; ++c) {
        a[static_cast<size_t>(r)][static_cast<size_t>(c)] -=
            f * a[static_cast<size_t>(j)][static_cast<size_t>(c)];
      }
      b[static_cast<size_t>(r)] -= f * b[static_cast<size_t>(j)];
    }
  }
  x->assign(static_cast<size_t>(k), 0.0);
  for (int j = k - 1; j >= 0; --j) {
    double s = b[static_cast<size_t>(j)];
    for (int c = j + 1; c < k; ++c) {
      s -= a[static_cast<size_t>(j)][static_cast<size_t>(c)] *
           (*x)[static_cast<size_t>(c)];
    }
    (*x)[static_cast<size_t>(j)] =
        s / a[static_cast<size_t>(j)][static_cast<size_t>(j)];
  }
  return -1;
}

}  // namespace

StatusOr<LeastSquaresFit> FitLeastSquares(
    const std::vector<std::vector<double>>& rows,
    const std::vector<double>& targets, const LeastSquaresOptions& options) {
  if (rows.empty()) {
    return Status::InvalidArgument("least squares: no calibration rows");
  }
  const size_t k = rows[0].size();
  if (k == 0) {
    return Status::InvalidArgument("least squares: no feature columns");
  }
  if (targets.size() != rows.size()) {
    return Status::InvalidArgument(
        "least squares: " + std::to_string(rows.size()) + " rows but " +
        std::to_string(targets.size()) + " targets");
  }
  if (!AllFinite(targets)) {
    return Status::InvalidArgument("least squares: non-finite target");
  }
  for (const std::vector<double>& row : rows) {
    if (row.size() != k) {
      return Status::InvalidArgument(
          "least squares: ragged feature matrix (expected " +
          std::to_string(k) + " columns, got " + std::to_string(row.size()) +
          ")");
    }
    if (!AllFinite(row)) {
      return Status::InvalidArgument("least squares: non-finite feature");
    }
  }

  // Iteratively solve over the still-active columns, dropping the first
  // degenerate variable each round (drop mode) until the normal equations
  // are non-singular. The loop runs at most k times.
  std::vector<int> active(k);
  for (size_t j = 0; j < k; ++j) active[j] = static_cast<int>(j);
  LeastSquaresFit fit;
  std::vector<double> solution;
  for (;;) {
    if (active.empty()) {
      return Status::InvalidArgument(
          "least squares: every feature column is degenerate (all-zero "
          "features?)");
    }
    const size_t ka = active.size();
    std::vector<std::vector<double>> a(ka, std::vector<double>(ka, 0.0));
    std::vector<double> b(ka, 0.0);
    for (size_t r = 0; r < rows.size(); ++r) {
      for (size_t i = 0; i < ka; ++i) {
        const double xi = rows[r][static_cast<size_t>(active[i])];
        b[i] += xi * targets[r];
        for (size_t j = i; j < ka; ++j) {
          a[i][j] += xi * rows[r][static_cast<size_t>(active[j])];
        }
      }
    }
    for (size_t i = 0; i < ka; ++i) {
      for (size_t j = 0; j < i; ++j) a[i][j] = a[j][i];
    }
    double max_diag = 0.0;
    for (size_t i = 0; i < ka; ++i) max_diag = std::max(max_diag, a[i][i]);
    const double pivot_floor = options.pivot_epsilon * max_diag;
    const int degenerate = SolveInPlace(a, b, pivot_floor, &solution);
    if (degenerate < 0) break;
    const int column = active[static_cast<size_t>(degenerate)];
    if (!options.drop_degenerate_columns) {
      return Status::FailedPrecondition(
          "least squares: rank-deficient feature matrix (column " +
          std::to_string(column) +
          " is degenerate); enable drop_degenerate_columns to fit without "
          "it");
    }
    fit.dropped_columns.push_back(column);
    active.erase(active.begin() + degenerate);
  }
  std::sort(fit.dropped_columns.begin(), fit.dropped_columns.end());

  fit.coefficients.assign(k, 0.0);
  for (size_t i = 0; i < active.size(); ++i) {
    fit.coefficients[static_cast<size_t>(active[i])] = solution[i];
  }

  double mean = 0.0;
  for (double y : targets) mean += y;
  mean /= static_cast<double>(targets.size());
  double tss = 0.0;
  for (size_t r = 0; r < rows.size(); ++r) {
    double predicted = 0.0;
    for (size_t j = 0; j < k; ++j) {
      predicted += fit.coefficients[j] * rows[r][j];
    }
    const double residual = targets[r] - predicted;
    fit.rss += residual * residual;
    const double centered = targets[r] - mean;
    tss += centered * centered;
  }
  fit.r_squared = tss > 0.0 ? 1.0 - fit.rss / tss : 1.0;
  return fit;
}

CalibratedCostModel::CalibratedCostModel(CalibrationCoefficients coefficients)
    : coefficients_(coefficients) {
  OLAPIDX_CHECK(std::isfinite(coefficients_.per_row));
  OLAPIDX_CHECK(std::isfinite(coefficients_.per_node));
  OLAPIDX_CHECK(std::isfinite(coefficients_.fixed));
}

double CalibratedCostModel::ScanCost(double view_rows) const {
  return std::max(kMinCost,
                  coefficients_.per_row * view_rows + coefficients_.fixed);
}

double CalibratedCostModel::EstimatedSearchSteps(double view_rows) {
  // ⌈log2(x + 1)⌉ = bit_width(⌈x⌉) for every real x >= 0, in exact integer
  // arithmetic; a view cannot hold 2^63 rows, so the clamp only keeps the
  // cast defined.
  if (!(view_rows > 0.0)) return 0.0;
  const double rows = std::ceil(std::min(view_rows, 0x1p63));
  return static_cast<double>(std::bit_width(static_cast<uint64_t>(rows)));
}

double CalibratedCostModel::IndexCost(double view_rows,
                                      double prefix_rows) const {
  const double touched = view_rows / std::max(1.0, prefix_rows);
  const double steps = EstimatedSearchSteps(view_rows);
  return std::max(kMinCost, coefficients_.per_row * touched +
                                coefficients_.per_node * steps +
                                coefficients_.fixed);
}

std::string CalibratedCostModel::Serialize() const {
  char buf[256];
  std::string out = "olapidx-costmodel v2\n";
  std::snprintf(buf, sizeof(buf), "per_row %a\n", coefficients_.per_row);
  out += buf;
  std::snprintf(buf, sizeof(buf), "per_node %a\n", coefficients_.per_node);
  out += buf;
  std::snprintf(buf, sizeof(buf), "fixed %a\n", coefficients_.fixed);
  out += buf;
  return out;
}

StatusOr<CalibratedCostModel> CalibratedCostModel::Parse(
    const std::string& text) {
  std::istringstream in(text);
  std::string line;
  const bool has_header = static_cast<bool>(std::getline(in, line));
  if (has_header && line == "olapidx-costmodel v1") {
    return Status::InvalidArgument(
        "cost model file: a v1 model's per_node was fitted to B-tree node "
        "touches, but indexes are now binary-searched sorted arrays; refit "
        "the model (bench_calibration --save-model=FILE writes v2)");
  }
  if (!has_header || line != "olapidx-costmodel v2") {
    return Status::InvalidArgument(
        "cost model file: missing 'olapidx-costmodel v2' header");
  }
  auto parse_double = [](const std::string& token, double* out) {
    const char* begin = token.c_str();
    char* end = nullptr;
    *out = std::strtod(begin, &end);
    return end != begin && *end == '\0' && std::isfinite(*out);
  };
  CalibrationCoefficients coefficients;
  struct Field {
    const char* key;
    double* value;
  };
  const Field fields[] = {
      {"per_row", &coefficients.per_row},
      {"per_node", &coefficients.per_node},
      {"fixed", &coefficients.fixed},
  };
  for (const Field& field : fields) {
    if (!std::getline(in, line)) {
      return Status::InvalidArgument(
          std::string("cost model file: missing '") + field.key + "' line");
    }
    const std::string prefix = std::string(field.key) + " ";
    if (line.rfind(prefix, 0) != 0 ||
        !parse_double(line.substr(prefix.size()), field.value)) {
      return Status::InvalidArgument(
          std::string("cost model file: malformed '") + field.key +
          "' line: " + line);
    }
  }
  if (std::getline(in, line)) {
    return Status::InvalidArgument(
        "cost model file: unexpected line after 'fixed': " + line);
  }
  return CalibratedCostModel(coefficients);
}

Status CalibratedCostModel::Save(const std::string& path) const {
  return AtomicWriteFile(path, Serialize());
}

StatusOr<CalibratedCostModel> CalibratedCostModel::Load(
    const std::string& path) {
  StatusOr<std::string> text = ReadFileToString(path);
  if (!text.ok()) {
    return Status::InvalidArgument("cost model file '" + path +
                                   "': " + text.status().message());
  }
  StatusOr<CalibratedCostModel> model = Parse(*text);
  if (!model.ok()) {
    return model.status().WithContext("cost model file '" + path + "'");
  }
  return model;
}

}  // namespace olapidx
