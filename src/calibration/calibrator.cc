#include "calibration/calibrator.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "common/metrics.h"
#include "common/rng.h"
#include "engine/batch_executor.h"
#include "engine/catalog.h"
#include "engine/executor.h"
#include "workload/calibration_workload.h"

namespace olapidx {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

// Selection values for `query`, copied from fact row `row` in ascending
// attribute order (the Executor's convention) — every probe matches at
// least that row, so selectivity tracks the data distribution.
std::vector<uint32_t> SelectionValuesFromRow(const FactTable& fact,
                                             const SliceQuery& query,
                                             size_t row) {
  std::vector<uint32_t> values;
  for (int a : query.selection().ToVector()) {
    values.push_back(fact.dim(row, a));
  }
  return values;
}

// One catalog phase of the sweep: execute every query `repeats` times,
// recording features from the counters' deltas and the minimum wall time.
void RunPhase(const Executor& executor, const FactTable& fact,
              const std::vector<SliceQuery>& sweep,
              const std::vector<size_t>& value_rows, const char* phase,
              int repeats, CalibrationDataset* dataset) {
  for (size_t qi = 0; qi < sweep.size(); ++qi) {
    const SliceQuery& query = sweep[qi];
    const std::vector<uint32_t> values =
        SelectionValuesFromRow(fact, query, value_rows[qi]);
    CalibrationProbe probe;
    probe.query = query;
    probe.phase = phase;
    probe.wall_ns = std::numeric_limits<uint64_t>::max();
    for (int r = 0; r < repeats; ++r) {
      MetricsRunScope scope;
      ExecutionStats stats;
      const uint64_t t0 = NowNs();
      GroupedResult result = executor.Execute(query, values, &stats);
      const uint64_t t1 = NowNs();
      probe.wall_ns = std::min(probe.wall_ns, t1 - t0);
      if (r > 0) continue;  // features are deterministic; record them once
      const MetricsSnapshot delta = scope.Delta();
      probe.touched_rows = stats.rows_processed;
      probe.search_steps = delta.CounterValue("index.search_steps");
      probe.scan_rows = delta.CounterValue("executor.rows_raw_scanned") +
                        delta.CounterValue("executor.rows_view_scanned");
      probe.index_rows = delta.CounterValue("executor.rows_index_probed");
      probe.result_rows = result.num_rows();
      probe.used_index = !stats.used_raw && !stats.index.empty();
    }
    dataset->probes.push_back(std::move(probe));
  }
}

double Clamped(double coefficient) {
  return coefficient < 0.0 ? 0.0 : coefficient;
}

}  // namespace

std::string CalibrationDataset::ToJson() const {
  std::string out = "{\n";
  out += "  \"schema\": \"olapidx-calibration\",\n";
  out += "  \"version\": " + std::to_string(version) + ",\n";
  out += "  \"num_dimensions\": " + std::to_string(num_dimensions) + ",\n";
  out += "  \"fact_rows\": " + std::to_string(fact_rows) + ",\n";
  out += std::string("  \"metrics_enabled\": ") +
         (metrics_enabled ? "true" : "false") + ",\n";
  out += "  \"seed\": " + std::to_string(seed) + ",\n";
  out += "  \"probes\": [\n";
  for (size_t i = 0; i < probes.size(); ++i) {
    const CalibrationProbe& p = probes[i];
    out += "    {\"group_by_mask\": " +
           std::to_string(p.query.group_by().mask()) +
           ", \"selection_mask\": " +
           std::to_string(p.query.selection().mask()) +
           ", \"phase\": \"" + JsonEscape(p.phase) + "\"";
    out += ", \"touched_rows\": " + std::to_string(p.touched_rows);
    out += ", \"search_steps\": " + std::to_string(p.search_steps);
    out += ", \"scan_rows\": " + std::to_string(p.scan_rows);
    out += ", \"index_rows\": " + std::to_string(p.index_rows);
    out += ", \"result_rows\": " + std::to_string(p.result_rows);
    out += ", \"wall_ns\": " + std::to_string(p.wall_ns);
    out += std::string(", \"used_index\": ") +
           (p.used_index ? "true" : "false");
    out += i + 1 < probes.size() ? "},\n" : "}\n";
  }
  out += "  ]\n}\n";
  return out;
}

StatusOr<CalibrationDataset> RunCalibration(
    const FactTable& fact, const CalibrationRunOptions& options) {
  if (fact.num_rows() == 0) {
    return Status::InvalidArgument(
        "calibration: the fact table has no rows");
  }
  if (options.repeats < 1) {
    return Status::InvalidArgument("calibration: repeats must be >= 1");
  }
  const CubeSchema& schema = fact.schema();
  CalibrationWorkloadOptions sweep_options;
  sweep_options.max_queries = options.max_queries;
  const std::vector<SliceQuery> sweep =
      CalibrationSweep(schema, sweep_options);

  // One fact-row draw per sweep query, shared across phases so the three
  // measurements of a shape answer the same concrete query.
  Pcg32 rng(options.seed);
  std::vector<size_t> value_rows;
  value_rows.reserve(sweep.size());
  for (size_t i = 0; i < sweep.size(); ++i) {
    value_rows.push_back(rng.NextBounded(
        static_cast<uint32_t>(std::min<size_t>(fact.num_rows(), ~0u))));
  }

  CalibrationDataset dataset;
  dataset.num_dimensions = schema.num_dimensions();
  dataset.fact_rows = fact.num_rows();
  dataset.seed = options.seed;
#if defined(OLAPIDX_METRICS_ENABLED)
  dataset.metrics_enabled = true;
#else
  dataset.metrics_enabled = false;
#endif

  const int n = schema.num_dimensions();
  const uint32_t num_views = 1u << n;

  {  // Phase "raw": nothing materialized, every plan scans the fact table.
    Catalog catalog(&fact);
    Executor executor(&catalog);
    RunPhase(executor, fact, sweep, value_rows, "raw", options.repeats,
             &dataset);
  }
  {  // Phase "view": every subcube materialized, no indexes — view scans
    // whose size varies across the lattice.
    Catalog catalog(&fact);
    for (uint32_t mask = 0; mask < num_views; ++mask) {
      catalog.MaterializeView(AttributeSet::FromMask(mask));
    }
    Executor executor(&catalog);
    RunPhase(executor, fact, sweep, value_rows, "view", options.repeats,
             &dataset);
  }
  {  // Phase "index": views plus one ascending-order fat index each —
    // covered probes when the query's selection is a key prefix, partially
    // covered or plain scans otherwise.
    Catalog catalog(&fact);
    for (uint32_t mask = 0; mask < num_views; ++mask) {
      AttributeSet attrs = AttributeSet::FromMask(mask);
      catalog.MaterializeView(attrs);
      if (attrs.empty()) continue;
      Status built = catalog.BuildIndex(attrs, IndexKey(attrs.ToVector()));
      if (!built.ok()) return built.WithContext("calibration index build");
    }
    Executor executor(&catalog);
    RunPhase(executor, fact, sweep, value_rows, "index", options.repeats,
             &dataset);
  }
  return dataset;
}

StatusOr<CalibrationFitResult> FitCalibratedModel(
    const CalibrationDataset& dataset, CalibrationTarget target) {
  if (dataset.probes.empty()) {
    return Status::InvalidArgument("calibration: empty dataset");
  }
  std::vector<std::vector<double>> rows;
  std::vector<double> targets;
  rows.reserve(dataset.probes.size());
  targets.reserve(dataset.probes.size());
  for (const CalibrationProbe& p : dataset.probes) {
    const double touched = static_cast<double>(p.touched_rows);
    const double steps = static_cast<double>(p.search_steps);
    rows.push_back({touched, steps, 1.0});
    targets.push_back(target == CalibrationTarget::kWallNs
                          ? static_cast<double>(p.wall_ns)
                          : kSimulatedTruth.per_row * touched +
                                kSimulatedTruth.per_node * steps +
                                kSimulatedTruth.fixed);
  }
  LeastSquaresOptions fit_options;
  fit_options.drop_degenerate_columns = true;
  StatusOr<LeastSquaresFit> fit = FitLeastSquares(rows, targets, fit_options);
  if (!fit.ok()) return fit.status().WithContext("calibration fit");

  CalibrationFitResult result;
  result.coefficients.per_row = Clamped(fit->coefficients[0]);
  result.coefficients.per_node = Clamped(fit->coefficients[1]);
  result.coefficients.fixed = Clamped(fit->coefficients[2]);
  result.dropped_columns = fit->dropped_columns;
  result.r_squared = fit->r_squared;
  result.probes = dataset.probes.size();
  return result;
}

DesignCost DesignCostUnderModel(
    const CubeSchema& schema, const ViewSizes& sizes,
    const Workload& workload,
    const std::vector<RecommendedStructure>& design, const CostModel& model,
    double raw_scan_penalty) {
  const double default_cost = model.ScanCost(
      raw_scan_penalty * sizes.SizeOf(schema.AllAttributes()));
  DesignCost out;
  double total_frequency = 0.0;
  for (const WeightedQuery& wq : workload.queries()) {
    double best = default_cost;
    for (const RecommendedStructure& s : design) {
      if (!wq.query.AnswerableFrom(s.view)) continue;
      const double view_rows = sizes.SizeOf(s.view);
      const double c =
          s.is_view()
              ? model.ScanCost(view_rows)
              : model.IndexCost(view_rows,
                                sizes.SizeOf(s.index.LongestSelectionPrefix(
                                    wq.query.selection())));
      best = std::min(best, c);
    }
    out.total += wq.frequency * best;
    total_frequency += wq.frequency;
  }
  out.average = total_frequency > 0.0 ? out.total / total_frequency : 0.0;
  return out;
}

StatusOr<PairedSelectionResult> RunPairedSelection(
    const CubeSchema& schema, const ViewSizes& sizes,
    const Workload& workload, const AdvisorConfig& config,
    std::shared_ptr<const CalibratedCostModel> model,
    const CubeGraphOptions& base_options) {
  if (model == nullptr) {
    return Status::InvalidArgument(
        "paired selection: a calibrated model is required");
  }
  StatusOr<Advisor> paper_advisor =
      Advisor::Create(schema, sizes, workload, base_options);
  if (!paper_advisor.ok()) return paper_advisor.status();
  CubeGraphOptions calibrated_options = base_options;
  calibrated_options.cost_model = model;
  StatusOr<Advisor> calibrated_advisor =
      Advisor::Create(schema, sizes, workload, calibrated_options);
  if (!calibrated_advisor.ok()) return calibrated_advisor.status();

  PairedSelectionResult out;
  out.paper = paper_advisor->Recommend(config);
  if (!out.paper.status.ok() && !out.paper.status.IsInterruption()) {
    return out.paper.status.WithContext("paper-model selection");
  }
  out.calibrated = calibrated_advisor->Recommend(config);
  if (!out.calibrated.status.ok() &&
      !out.calibrated.status.IsInterruption()) {
    return out.calibrated.status.WithContext("calibrated-model selection");
  }

  const PaperCostModel& paper_model = PaperCostModel::Instance();
  const double penalty = base_options.raw_scan_penalty;
  out.paper_under_paper = DesignCostUnderModel(
      schema, sizes, workload, out.paper.structures, paper_model, penalty);
  out.paper_under_calibrated = DesignCostUnderModel(
      schema, sizes, workload, out.paper.structures, *model, penalty);
  out.calibrated_design = out.calibrated.structures;
  out.calibrated_under_calibrated =
      DesignCostUnderModel(schema, sizes, workload, out.calibrated_design,
                           *model, penalty);
  // Greedy under the calibrated objective is not optimal; when the paper
  // design happens to score better on the calibrated metric, adopt it —
  // the advisor considered both candidates, so the calibrated side is
  // never worse on its own metric.
  if (out.paper_under_calibrated.total <
      out.calibrated_under_calibrated.total) {
    out.calibrated_design = out.paper.structures;
    out.calibrated_under_calibrated = out.paper_under_calibrated;
    out.fallback_used = true;
  }
  out.calibrated_under_paper = DesignCostUnderModel(
      schema, sizes, workload, out.calibrated_design, paper_model, penalty);
  out.paper_regret =
      out.calibrated_under_calibrated.average > 0.0
          ? out.paper_under_calibrated.average /
                    out.calibrated_under_calibrated.average -
                1.0
          : 0.0;
  return out;
}

StatusOr<ReplayResult> ReplayDesign(
    const FactTable& fact, const std::vector<RecommendedStructure>& design,
    const Workload& workload, uint64_t seed) {
  if (fact.num_rows() == 0) {
    return Status::InvalidArgument("replay: the fact table has no rows");
  }
  Catalog catalog(&fact);
  for (const RecommendedStructure& s : design) {
    catalog.MaterializeView(s.view);
  }
  for (const RecommendedStructure& s : design) {
    if (s.is_view()) continue;
    Status built = catalog.BuildIndex(s.view, s.index);
    if (!built.ok()) return built.WithContext("replay index build");
  }
  Executor executor(&catalog);
  Pcg32 rng(seed);
  ReplayResult out;
  for (const WeightedQuery& wq : workload.queries()) {
    const size_t row = rng.NextBounded(
        static_cast<uint32_t>(std::min<size_t>(fact.num_rows(), ~0u)));
    const std::vector<uint32_t> values =
        SelectionValuesFromRow(fact, wq.query, row);
    ExecutionStats stats;
    const uint64_t t0 = NowNs();
    (void)executor.Execute(wq.query, values, &stats);
    const uint64_t t1 = NowNs();
    ++out.queries;
    out.rows_processed += stats.rows_processed;
    out.wall_ns += t1 - t0;
  }
  return out;
}

StatusOr<BatchReplayResult> ReplayDesignBatched(
    const FactTable& fact, const std::vector<RecommendedStructure>& design,
    const Workload& workload, size_t batch_size, size_t num_threads,
    uint64_t seed) {
  if (fact.num_rows() == 0) {
    return Status::InvalidArgument("replay: the fact table has no rows");
  }
  if (batch_size == 0) {
    return Status::InvalidArgument("replay: batch_size must be positive");
  }
  Catalog catalog(&fact);
  for (const RecommendedStructure& s : design) {
    catalog.MaterializeView(s.view);
  }
  for (const RecommendedStructure& s : design) {
    if (s.is_view()) continue;
    Status built = catalog.BuildIndex(s.view, s.index);
    if (!built.ok()) return built.WithContext("replay index build");
  }
  catalog.CompressAllViews();

  // Expand frequencies into a request stream: the log's count means the
  // same slice was asked that many times, so repeats share one value
  // draw. Thin proportionally past the cap to bound replay time.
  constexpr uint64_t kMaxReplayRequests = 65'536;
  double total_frequency = 0.0;
  for (const WeightedQuery& wq : workload.queries()) {
    total_frequency += std::max(1.0, wq.frequency);
  }
  const double thin =
      total_frequency > static_cast<double>(kMaxReplayRequests)
          ? static_cast<double>(kMaxReplayRequests) / total_frequency
          : 1.0;
  Pcg32 rng(seed);
  std::vector<SliceQuery> stream_queries;
  std::vector<std::vector<uint32_t>> stream_values;
  for (const WeightedQuery& wq : workload.queries()) {
    const size_t row = rng.NextBounded(
        static_cast<uint32_t>(std::min<size_t>(fact.num_rows(), ~0u)));
    const std::vector<uint32_t> values =
        SelectionValuesFromRow(fact, wq.query, row);
    const uint64_t repeats = static_cast<uint64_t>(
        std::max(1.0, std::floor(std::max(1.0, wq.frequency) * thin)));
    for (uint64_t r = 0; r < repeats; ++r) {
      stream_queries.push_back(wq.query);
      stream_values.push_back(values);
    }
  }

  BatchExecutor executor(&catalog, num_threads);
  BatchReplayResult out;
  for (size_t begin = 0; begin < stream_queries.size();
       begin += batch_size) {
    const size_t end =
        std::min(stream_queries.size(), begin + batch_size);
    const std::vector<SliceQuery> queries(
        stream_queries.begin() +
            static_cast<std::ptrdiff_t>(begin),
        stream_queries.begin() + static_cast<std::ptrdiff_t>(end));
    const std::vector<std::vector<uint32_t>> values(
        stream_values.begin() + static_cast<std::ptrdiff_t>(begin),
        stream_values.begin() + static_cast<std::ptrdiff_t>(end));
    BatchStats bstats;
    const uint64_t t0 = NowNs();
    std::vector<GroupedResult> results =
        executor.ExecuteBatch(queries, values, nullptr, &bstats);
    const uint64_t t1 = NowNs();
    out.wall_ns += t1 - t0;
    ++out.batches;
    out.requests += bstats.queries;
    out.unique_requests += bstats.unique_queries;
    out.rows_decoded += bstats.rows_decoded;
    out.logical_rows += bstats.logical_rows;
    out.bytes_scanned += bstats.bytes_scanned;
  }
  return out;
}

}  // namespace olapidx
