// The two serving workloads. Both use the dim-8 Zipf(1) fact table of the
// E16 serving experiment and the sparse design recommended for its 64
// sampled query shapes, materialized and compressed:
//  * serve-hot — dashboard traffic: 64-request batches through
//    BatchExecutor over 40k fact rows, whose views fit in a core's L2.
//    Shapes are Zipf-weighted and each draws its values from a 12-slice
//    Zipf pool, so requests repeat within a batch: coalescing, shared scans
//    and columnar decode do nearly all the work.
//  * serve-cold — ad-hoc reads with ingest beside them: one request at a
//    time through Executor::TryExecute over 250k fact rows, uniform shapes,
//    values from a fresh random fact row each time so nothing repeats, and
//    every kAppendEvery requests kAppendRows new fact rows are appended
//    and folded in by Catalog::RefreshAfterAppend. It bypasses the batch
//    layer, so planner, serial scans and the write path carry the load.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/journal.h"
#include "core/advisor.h"
#include "cost/analytical_model.h"
#include "data/fact_generator.h"
#include "engine/batch_executor.h"
#include "engine/physical_design.h"
#include "workload/workload.h"
#include "workloads.h"

namespace perfbench {
namespace {

using olapidx::Catalog;
using olapidx::GroupedResult;
using olapidx::SliceQuery;

constexpr uint64_t kCardinalities[] = {100, 200, 50, 80, 120, 60, 90, 40};
constexpr double kSkew = 1.0;
constexpr uint64_t kDatasetSeed = 42;
constexpr size_t kShapes = 64;
// Space budget in fact-table rows, as in E16.
constexpr double kBudgetRows = 4.0;

constexpr size_t kHotRows = 40'000;
constexpr int kHotSetups = 11;
constexpr size_t kBatchSize = 64;
constexpr size_t kValuePoolSize = 12;
// Distinct batches. A pass runs each of them once, in order; the run
// repeats passes and ends at the end of one.
constexpr size_t kHotBatches = 128;
constexpr uint64_t kHotWindow = 32;       // batches in the counter window
static_assert(kHotWindow <= kHotBatches);
constexpr uint64_t kHotCheckEvery = 61;   // batches between result checks

constexpr size_t kColdRows = 250'000;
constexpr int kColdSetups = 5;
// Write traffic. An append adds 0.1% of the initial fact rows, the size of
// a TPC-H RF1 insert, and follows every pass over the kShapes shapes.
constexpr uint64_t kAppendEvery = kShapes;  // requests between appends
constexpr size_t kAppendRows = kColdRows / 1000;
constexpr uint64_t kColdWindowAppends = 2;
constexpr uint64_t kColdWindow = kColdWindowAppends * kAppendEvery;
constexpr uint64_t kColdCheckEvery = 97;  // requests between naive checks

struct ServeInputs {
  olapidx::CubeSchema schema;
  olapidx::FactTable fact;
  olapidx::Workload shapes;
  olapidx::ViewSizes sizes;
};

olapidx::CubeSchema Schema8() {
  std::vector<olapidx::Dimension> dims;
  for (int i = 0; i < 8; ++i) {
    dims.push_back(olapidx::Dimension{"d" + std::to_string(i),
                                      kCardinalities[i]});
  }
  return olapidx::CubeSchema(std::move(dims));
}

// The fact table and the query shapes, hence the design, are fixed
// (kDatasetSeed); the run's seed draws the request stream and the appended
// rows, so the spread between seeds measures the system rather than the
// dataset.
ServeInputs MakeInputs(size_t rows) {
  olapidx::CubeSchema schema = Schema8();
  olapidx::FactTable fact =
      olapidx::GenerateZipfFacts(schema, rows, kSkew, kDatasetSeed);
  olapidx::Workload shapes = olapidx::SampledZipfSliceQueries(
      olapidx::CubeLattice(schema), kSkew, kShapes, kDatasetSeed);
  olapidx::ViewSizes sizes =
      olapidx::AnalyticalViewSizes(schema, static_cast<double>(rows));
  return ServeInputs{std::move(schema), std::move(fact), std::move(shapes),
                     std::move(sizes)};
}

// The serving state a setup builds: advise, materialize, compress.
struct Serving {
  std::unique_ptr<Catalog> catalog;
  std::string error;
  double setup_s = 0.0;
  double materialize_ms = 0.0;
  double compress_ms = 0.0;
  double cost_ratio = 0.0;
};

Serving Setup(const ServeInputs& in, size_t threads, SpanLog& log,
              uint64_t request) {
  Serving out;
  ScopedSpan root(log, "setup", request);
  const int64_t t0 = NowNs();
  olapidx::StatusOr<olapidx::Advisor> advisor = [&] {
    ScopedSpan span(log, "core.graph_build", request);
    olapidx::SparseCubeGraphOptions options;
    options.num_threads = threads;
    return olapidx::Advisor::CreateSparse(in.schema, in.sizes, in.shapes,
                                          options);
  }();
  if (!advisor.ok()) {
    out.error = "Advisor::CreateSparse: " + advisor.status().ToString();
    return out;
  }
  olapidx::AdvisorConfig config;
  config.algorithm = olapidx::Algorithm::kInnerLevel;
  config.space_budget =
      kBudgetRows * static_cast<double>(in.fact.num_rows());
  config.inner_greedy.num_threads = threads;
  olapidx::Recommendation rec = [&] {
    ScopedSpan span(log, "core.selection", request);
    return advisor->Recommend(config);
  }();
  if (!rec.status.ok()) {
    out.error = "Advisor::Recommend: " + rec.status.ToString();
    return out;
  }
  out.cost_ratio = rec.average_query_cost / rec.initial_average_cost;
  std::vector<olapidx::PhysicalDesignItem> items;
  for (const olapidx::RecommendedStructure& s : rec.structures) {
    items.push_back(olapidx::PhysicalDesignItem{s.view, s.index});
  }
  auto catalog = std::make_unique<Catalog>(&in.fact);
  const int64_t t1 = NowNs();
  olapidx::StatusOr<olapidx::PhysicalDesignStats> applied = [&] {
    ScopedSpan span(log, "engine.materialize", request);
    return olapidx::MaterializePhysicalDesign(*catalog, items);
  }();
  const int64_t t2 = NowNs();
  if (!applied.ok()) {
    out.error = "MaterializePhysicalDesign: " + applied.status().ToString();
    return out;
  }
  {
    ScopedSpan span(log, "engine.compress", request);
    catalog->CompressAllViews();
  }
  const int64_t t3 = NowNs();
  out.catalog = std::move(catalog);
  out.setup_s = NsToMs(t3 - t0) / 1e3;
  out.materialize_ms = NsToMs(t2 - t1);
  out.compress_ms = NsToMs(t3 - t2);
  return out;
}

// Bytes of the catalog's column stores, and of the same views as row stores.
struct ColumnStoreBytes {
  double compressed = 0.0;
  double row = 0.0;
};

ColumnStoreBytes MeasureColumnStores(const Catalog& catalog) {
  ColumnStoreBytes bytes;
  for (olapidx::AttributeSet attrs : catalog.materialized_views()) {
    if (const olapidx::ColumnStore* store = catalog.column_store(attrs)) {
      bytes.compressed += static_cast<double>(store->CompressedBytes());
      bytes.row += static_cast<double>(
          olapidx::ColumnStore::RowStoreBytes(catalog.view(attrs)));
    }
  }
  return bytes;
}

std::vector<uint32_t> ValuesFromRow(const olapidx::FactTable& fact,
                                    size_t row, const SliceQuery& query) {
  std::vector<uint32_t> values;
  for (int a : query.selection().ToVector()) values.push_back(fact.dim(row, a));
  return values;
}

// Hash of every bit of a result: keys, counts and sums.
uint64_t HashResult(const GroupedResult& r, uint64_t h) {
  const auto mix = [&h](const void* data, size_t size) {
    h = olapidx::Fnv1a64(data, size, h);
  };
  const uint64_t rows = r.num_rows();
  mix(&rows, sizeof(rows));
  for (size_t i = 0; i < r.num_rows(); ++i) {
    mix(r.keys[i].data(), r.keys[i].size() * sizeof(uint32_t));
    mix(&r.aggregates[i].count, sizeof(r.aggregates[i].count));
    mix(&r.sums[i], sizeof(r.sums[i]));
  }
  return h;
}

uint64_t HashResults(const std::vector<GroupedResult>& results) {
  uint64_t h = 0;
  for (const GroupedResult& r : results) h = HashResult(r, h);
  return h;
}

// Data generation plus `setups` setups (setup_s is their median); keeps
// the last one.
struct Prepared {
  ServeInputs in;
  Serving serving;
  std::vector<double> setup_s, materialize_ms, compress_ms;
  double generate_ms = 0.0;
  // Of the kept setup, before any append.
  double compression_ratio = 0.0;
};

bool Prepare(const RunOptions& options, size_t rows, int setups,
             SpanLog& log, Prepared* out, RunResult* result) {
  log.set_enabled(options.trace);
  const int64_t g0 = NowNs();
  {
    ScopedSpan span(log, "data", 0);
    out->in = MakeInputs(rows);
  }
  out->generate_ms = NsToMs(NowNs() - g0);
  for (int i = 0; i < setups; ++i) {
    out->serving = Serving{};  // free the previous catalog first
    out->serving = Setup(out->in, options.threads, log,
                         static_cast<uint64_t>(i));
    result->Tally(out->serving.catalog != nullptr);
    if (out->serving.catalog == nullptr) {
      result->Check(false, out->serving.error);
      return false;
    }
    out->setup_s.push_back(out->serving.setup_s);
    out->materialize_ms.push_back(out->serving.materialize_ms);
    out->compress_ms.push_back(out->serving.compress_ms);
  }
  log.set_enabled(false);
  const ColumnStoreBytes bytes = MeasureColumnStores(*out->serving.catalog);
  out->compression_ratio = bytes.row > 0.0 ? bytes.compressed / bytes.row : 0.0;
  return true;
}

void AddSetupMetrics(const Prepared& p, RunResult* result) {
  result->end_to_end["setup_s"] = {Median(p.setup_s), "s"};
  result->end_to_end["cost_ratio"] = {p.serving.cost_ratio, "ratio"};
  auto& layer = result->per_layer;
  layer["data.generate_ms"] = {p.generate_ms, "ms"};
  layer["engine.materialize_ms"] = {Median(p.materialize_ms), "ms"};
  layer["engine.compress_ms"] = {Median(p.compress_ms), "ms"};
  layer["engine.column_store.compression_ratio"] = {p.compression_ratio,
                                                    "ratio"};
}

void AddLoopMetrics(const RunResult& counts, double requests, double seconds,
                    const std::vector<double>& heap_peak_mib,
                    const std::vector<double>& latency_ms,
                    RunResult* result) {
  auto& e2e = result->end_to_end;
  e2e["peak_rss_mib"] = {PeakRssMib(), "MiB"};
  e2e["heap_peak_mib"] = {Median(heap_peak_mib), "MiB"};
  e2e["ok_frac"] = {static_cast<double>(counts.attempted - counts.failed) /
                        static_cast<double>(counts.attempted),
                    "fraction"};
  e2e["ops_per_s"] = {requests / seconds, "1/s"};
  e2e["op_p50_ms"] = {Median(latency_ms), "ms"};
}

struct Batch {
  std::vector<SliceQuery> queries;
  std::vector<std::vector<uint32_t>> values;
};

// Splits `total` items over `weights` by largest remainder: exact
// proportions that sum to `total`.
std::vector<size_t> Apportion(const std::vector<double>& weights,
                              size_t total) {
  double sum = 0.0;
  for (double w : weights) sum += w;
  std::vector<size_t> counts(weights.size());
  std::vector<std::pair<double, size_t>> remainders;
  size_t given = 0;
  for (size_t i = 0; i < weights.size(); ++i) {
    const double exact = static_cast<double>(total) * weights[i] / sum;
    counts[i] = static_cast<size_t>(exact);
    given += counts[i];
    remainders.emplace_back(exact - static_cast<double>(counts[i]), i);
  }
  std::stable_sort(remainders.begin(), remainders.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (size_t k = 0; given < total; ++k, ++given) ++counts[remainders[k].second];
  return counts;
}

// The rows of one append, drawn like the base table's: each dimension value
// and the measure come from an independently chosen row of the first
// `base_rows`, as the generator draws each dimension independently.
olapidx::FactTable DeltaRows(const olapidx::FactTable& fact, size_t base_rows,
                             olapidx::Pcg32& rng) {
  olapidx::FactTable delta(fact.schema());
  delta.Reserve(kAppendRows);
  const auto any_row = [&] {
    return rng.NextBounded(static_cast<uint32_t>(base_rows));
  };
  std::vector<uint32_t> dims(
      static_cast<size_t>(fact.schema().num_dimensions()));
  for (size_t r = 0; r < kAppendRows; ++r) {
    for (size_t a = 0; a < dims.size(); ++a) {
      dims[a] = fact.dim(any_row(), static_cast<int>(a));
    }
    delta.Append(dims, fact.measure(any_row()));
  }
  return delta;
}

// Dashboard traffic. Shapes are weighted by workload frequency; each shape
// takes its values Zipf(1) over a pool of kValuePoolSize slices from random
// fact rows, so the same request recurs within a batch. The request
// population holds these proportions exactly and belongs to the dataset;
// the run's seed shuffles it into batches. So every seed serves the same
// requests, grouped differently.
struct Dashboard {
  // Selection values of each shape's slices: slices[shape][rank].
  std::vector<std::vector<std::vector<uint32_t>>> slices;
  // The population as (shape, rank) pairs in the seed's order; batch b is
  // requests [b * kBatchSize, (b + 1) * kBatchSize).
  std::vector<std::pair<uint8_t, uint8_t>> requests;
};

Dashboard MakeDashboard(const ServeInputs& in, uint64_t seed) {
  static_assert(kShapes <= 256 && kValuePoolSize <= 256);
  olapidx::Pcg32 pool_rng(kDatasetSeed, /*stream=*/16);
  std::vector<double> shape_weights;
  for (const olapidx::WeightedQuery& wq : in.shapes.queries()) {
    shape_weights.push_back(wq.frequency);
  }
  std::vector<double> rank_weights;
  for (size_t r = 0; r < kValuePoolSize; ++r) {
    rank_weights.push_back(1.0 / static_cast<double>(r + 1));
  }
  Dashboard d;
  d.slices.resize(in.shapes.size());
  const std::vector<size_t> per_shape =
      Apportion(shape_weights, kHotBatches * kBatchSize);
  for (size_t q = 0; q < in.shapes.size(); ++q) {
    const std::vector<size_t> per_rank = Apportion(rank_weights, per_shape[q]);
    for (size_t r = 0; r < kValuePoolSize; ++r) {
      const size_t row =
          pool_rng.NextBounded(static_cast<uint32_t>(in.fact.num_rows()));
      d.slices[q].push_back(ValuesFromRow(in.fact, row, in.shapes[q].query));
      d.requests.insert(d.requests.end(), per_rank[r],
                        {static_cast<uint8_t>(q), static_cast<uint8_t>(r)});
    }
  }
  olapidx::Pcg32 rng(seed, /*stream=*/16);
  for (size_t k = d.requests.size() - 1; k > 0; --k) {
    std::swap(d.requests[k],
              d.requests[rng.NextBounded(static_cast<uint32_t>(k + 1))]);
  }
  return d;
}

// Batches are built one at a time, so the driver holds only the compact
// population, not kHotBatches batches of queries and values.
Batch MakeBatch(const ServeInputs& in, const Dashboard& d, uint64_t b) {
  Batch batch;
  const size_t first = static_cast<size_t>(b % kHotBatches) * kBatchSize;
  for (size_t i = first; i < first + kBatchSize; ++i) {
    const auto [q, r] = d.requests[i];
    batch.queries.push_back(in.shapes[q].query);
    batch.values.push_back(d.slices[q][r]);
  }
  return batch;
}

}  // namespace

RunResult RunServeHot(const RunOptions& options, SpanLog& log) {
  RunResult result;
  Prepared p{ServeInputs{Schema8(), olapidx::FactTable(Schema8()), {}, {}},
             {}, {}, {}, {}, 0.0};
  if (!Prepare(options, kHotRows, kHotSetups, log, &p, &result)) {
    return result;
  }
  const Dashboard dashboard = MakeDashboard(p.in, options.seed);
  const Catalog& catalog = *p.serving.catalog;
  olapidx::BatchExecutor executor(&catalog, options.threads);

  std::vector<double> batch_ms, traced_batch_ms;
  // (batch, hash of its results): hashes rather than results, so the live
  // heap does not grow over the run.
  std::vector<std::pair<uint64_t, uint64_t>> sampled;
  olapidx::BatchStats window;
  double traced_ns = 0.0;
  double traced_rows = 0.0;
  uint64_t traced_batches = 0;
  uint64_t requests = 0;
  std::vector<double> heap_peak_mib;
  // The driver's time building batches, left out of the phase's time.
  int64_t driver_ns = 0;
  // Seconds of each pass, less the driver's time in it.
  std::vector<double> pass_s;
  const int64_t phase_start = NowNs();
  int64_t pass_start = phase_start, pass_driver_ns = 0;
  for (uint64_t b = 0;; ++b) {
    const int64_t b0 = NowNs();
    const Batch batch = MakeBatch(p.in, dashboard, b);
    driver_ns += NowNs() - b0;
    const bool traced = Traced(options, b);
    log.set_enabled(traced);
    std::vector<GroupedResult> results;
    olapidx::BatchStats stats;
    ResetHeapPeak();
    const int64_t t0 = NowNs();
    olapidx::Status status;
    {
      ScopedSpan root(log, "serve.batch", b);
      ScopedSpan span(log, "engine.batch", b);
      status = executor.TryExecuteBatch(batch.queries, batch.values, &results,
                                        nullptr, &stats);
    }
    const int64_t t1 = NowNs();
    log.set_enabled(false);
    result.Tally(status.ok(), batch.queries.size());
    result.Check(status.ok(), "TryExecuteBatch: " + status.ToString());
    if (traced) {
      ++traced_batches;
      traced_batch_ms.push_back(NsToMs(t1 - t0));
      traced_ns += static_cast<double>(t1 - t0);
      traced_rows += static_cast<double>(stats.rows_decoded);
    } else {
      batch_ms.push_back(NsToMs(t1 - t0));
      heap_peak_mib.push_back(static_cast<double>(HeapPeakBytes()) / kMiB);
      requests += batch.queries.size();
    }
    if (b < kHotWindow) {
      window.queries += stats.queries;
      window.unique_queries += stats.unique_queries;
      window.scan_groups += stats.scan_groups;
      window.probe_groups += stats.probe_groups;
      window.columnar_scans += stats.columnar_scans;
      window.rows_decoded += stats.rows_decoded;
      window.logical_rows += stats.logical_rows;
      window.bytes_scanned += stats.bytes_scanned;
      result.Mix(HashResults(results));
    }
    if (b % kHotCheckEvery == 0) sampled.emplace_back(b, HashResults(results));
    if ((b + 1) % kHotBatches != 0) continue;
    const int64_t pass_end = NowNs();
    pass_s.push_back(
        NsToMs(pass_end - pass_start - (driver_ns - pass_driver_ns)) / 1e3);
    pass_start = pass_end;
    pass_driver_ns = driver_ns;
    // End at the pass boundary nearest to --seconds.
    if (NsToMs(pass_end - phase_start - driver_ns) / 1e3 + pass_s.back() / 2 >=
        options.seconds) {
      break;
    }
  }
  // Sampled batch results must be bit-identical to serial execution over
  // the same (columnar) storage.
  const olapidx::Executor serial(&catalog);
  for (const auto& [b, hash] : sampled) {
    const Batch batch = MakeBatch(p.in, dashboard, b);
    std::vector<GroupedResult> expected;
    for (size_t i = 0; i < batch.queries.size(); ++i) {
      expected.push_back(serial.Execute(batch.queries[i], batch.values[i]));
    }
    result.Check(hash == HashResults(expected),
                 "batch " + std::to_string(b) +
                     " differs from serial Executor::Execute");
  }

  // QPS is one pass's requests over the median pass time: every seed is
  // timed on its whole request population, and a stall slows one pass
  // only. In a traced run every other batch is traced; QPS counts the
  // untraced ones over their own time.
  double untraced_s = 0.0;
  for (double ms : batch_ms) untraced_s += ms / 1e3;
  AddSetupMetrics(p, &result);
  AddLoopMetrics(result,
                 options.trace ? static_cast<double>(requests)
                               : static_cast<double>(kHotBatches * kBatchSize),
                 options.trace ? untraced_s : Median(pass_s), heap_peak_mib,
                 batch_ms, &result);
  std::printf("serve-hot: %zu untraced + %llu traced batches of %zu, "
              "%zu passes of %zu batches\n",
              batch_ms.size(), static_cast<unsigned long long>(traced_batches),
              kBatchSize, pass_s.size(), kHotBatches);
  std::vector<double> request_ms;
  for (double ms : batch_ms) request_ms.insert(request_ms.end(), kBatchSize, ms);
  ReportValue("serve_qps", result.end_to_end["ops_per_s"].value, "1/s");
  ReportTimes("serve_latency_ms", request_ms, "ms");
  ReportTimes("serve_pass_s", pass_s, "s");

  auto& layer = result.per_layer;
  layer["engine.batch.batch_ms"] = {Median(traced_batch_ms), "ms"};
  layer["engine.batch.ns_per_decoded_row"] = {
      traced_rows > 0.0 ? traced_ns / traced_rows : 0.0, "ns"};
  layer["engine.batch.queries"] = {static_cast<double>(window.queries),
                                   "count"};
  layer["engine.batch.unique_queries"] = {
      static_cast<double>(window.unique_queries), "count"};
  layer["engine.batch.scan_groups"] = {static_cast<double>(window.scan_groups),
                                       "count"};
  layer["engine.batch.probe_groups"] = {
      static_cast<double>(window.probe_groups), "count"};
  layer["engine.batch.columnar_scans"] = {
      static_cast<double>(window.columnar_scans), "count"};
  layer["engine.batch.rows_decoded"] = {
      static_cast<double>(window.rows_decoded), "count"};
  layer["engine.batch.logical_rows"] = {
      static_cast<double>(window.logical_rows), "count"};
  layer["engine.batch.bytes_scanned"] = {
      static_cast<double>(window.bytes_scanned), "bytes"};
  layer["engine.batch.coalesce_ratio"] = {
      static_cast<double>(window.unique_queries) /
          static_cast<double>(std::max<uint64_t>(1, window.queries)),
      "ratio"};
  layer["engine.batch.share_factor"] = {
      static_cast<double>(window.logical_rows) /
          static_cast<double>(std::max<uint64_t>(1, window.rows_decoded)),
      "ratio"};
  if (options.trace) {
    AddTraceMetrics(log, phase_start, traced_batches, traced_batch_ms,
                    batch_ms, &result);
  }
  return result;
}

RunResult RunServeCold(const RunOptions& options, SpanLog& log) {
  RunResult result;
  Prepared p{ServeInputs{Schema8(), olapidx::FactTable(Schema8()), {}, {}},
             {}, {}, {}, {}, 0.0};
  if (!Prepare(options, kColdRows, kColdSetups, log, &p, &result)) {
    return result;
  }
  olapidx::FactTable& fact = p.in.fact;
  Catalog& catalog = *p.serving.catalog;
  const size_t base_rows = fact.num_rows();
  const olapidx::Executor executor(&catalog);
  olapidx::Pcg32 rng(options.seed, /*stream=*/17);
  olapidx::Pcg32 delta_rng(options.seed, /*stream=*/18);
  std::vector<size_t> shape_order(kShapes);
  for (size_t k = 0; k < kShapes; ++k) shape_order[k] = k;

  std::vector<double> request_ms, plan_us, execute_us, append_ms;
  std::vector<double> traced_op_ms, untraced_op_ms, traced_append_ms;
  uint64_t requests = 0, appends = 0, traced_ops = 0;
  uint64_t window_requests = 0, window_rows = 0, window_result_rows = 0;
  uint64_t window_raw = 0, window_columnar = 0;
  olapidx::Catalog::RefreshStats window_refresh;
  double window_column_bytes = 0.0;
  // The driver's own work in the phase (result checks, drawing appended
  // rows), left out of its time.
  int64_t driver_ns = 0;
  std::vector<double> heap_peak_mib;
  const int64_t phase_start = NowNs();
  int64_t phase_end = phase_start;
  for (uint64_t i = 0;; ++i) {
    // Shapes are uniform and stratified: each block of kShapes requests
    // visits every shape once, in a seeded order.
    if (i % kShapes == 0) {
      for (size_t k = kShapes - 1; k > 0; --k) {
        std::swap(shape_order[k], shape_order[rng.NextBounded(
                                      static_cast<uint32_t>(k + 1))]);
      }
    }
    const SliceQuery& query = p.in.shapes[shape_order[i % kShapes]].query;
    const std::vector<uint32_t> values = ValuesFromRow(
        fact, rng.NextBounded(static_cast<uint32_t>(fact.num_rows())), query);
    const bool traced = Traced(options, i);
    log.set_enabled(traced);
    GroupedResult out;
    olapidx::ExecutionStats stats;
    olapidx::Status status;
    ResetHeapPeak();
    const int64_t t0 = NowNs();
    int64_t t1 = t0;
    {
      ScopedSpan root(log, "serve.request", i);
      // TryExecute plans internally; a traced request also times the
      // planner alone, beside it.
      if (traced) {
        {
          ScopedSpan span(log, "engine.plan", i);
          (void)olapidx::PlanAccess(catalog, query);
        }
        t1 = NowNs();
      }
      ScopedSpan span(log, "engine.executor", i);
      status = executor.TryExecute(query, values, &out, &stats);
    }
    const int64_t t2 = NowNs();
    log.set_enabled(false);
    result.Tally(status.ok());
    result.Check(status.ok(), "TryExecute: " + status.ToString());
    if (traced) {
      // The extra PlanAccess is left out of the traced operation, so the
      // traced-untraced difference is the spans' cost alone.
      ++traced_ops;
      traced_op_ms.push_back(NsToMs(t2 - t1));
      plan_us.push_back(NsToMs(t1 - t0) * 1e3);
      execute_us.push_back(NsToMs(t2 - t1) * 1e3);
    } else {
      untraced_op_ms.push_back(NsToMs(t2 - t0));
      request_ms.push_back(NsToMs(t2 - t0));
      heap_peak_mib.push_back(static_cast<double>(HeapPeakBytes()) / kMiB);
      ++requests;
    }
    if (i < kColdWindow) {
      ++window_requests;
      window_rows += stats.rows_processed;
      window_result_rows += out.num_rows();
      window_raw += stats.used_raw ? 1 : 0;
      window_columnar += stats.used_columnar ? 1 : 0;
      result.Mix(HashResult(out, 0));
    }
    // Sampled results after appends must match a raw-table scan: keys and
    // counts exactly, sums to 1e-9 relative (the summation order differs).
    if (appends > 0 && i % kColdCheckEvery == 0) {
      const int64_t c0 = NowNs();
      const GroupedResult naive = executor.ExecuteNaive(query, values);
      bool same = out.keys == naive.keys && out.num_rows() == naive.num_rows();
      for (size_t r = 0; same && r < naive.num_rows(); ++r) {
        const double scale = std::max(1.0, std::abs(naive.sums[r]));
        same = out.aggregates[r].count == naive.aggregates[r].count &&
               std::abs(out.sums[r] - naive.sums[r]) <= 1e-9 * scale;
      }
      result.Check(same, "request " + std::to_string(i) +
                             " differs from Executor::ExecuteNaive");
      driver_ns += NowNs() - c0;
    }
    // Every kAppendEvery requests close an epoch with one append; the run
    // ends only at an epoch boundary, so every run has the same mix of
    // reads and refreshes.
    if ((i + 1) % kAppendEvery != 0) continue;
    {
      const int64_t d0 = NowNs();
      const olapidx::FactTable delta = DeltaRows(fact, base_rows, delta_rng);
      const bool append_traced = Traced(options, appends);
      log.set_enabled(append_traced);
      const int64_t a0 = NowNs();
      driver_ns += a0 - d0;
      olapidx::Catalog::RefreshStats refresh;
      {
        ScopedSpan root(log, "ingest.append", appends);
        ScopedSpan span(log, "engine.refresh", appends);
        for (size_t r = 0; r < kAppendRows; ++r) {
          fact.Append(delta.RowDims(r), delta.measure(r));
        }
        refresh = catalog.RefreshAfterAppend();
      }
      const double ms = NsToMs(NowNs() - a0);
      log.set_enabled(false);
      result.Tally(true);
      (append_traced ? traced_append_ms : append_ms).push_back(ms);
      (append_traced ? traced_op_ms : untraced_op_ms).push_back(ms);
      if (append_traced) ++traced_ops;
      if (appends < kColdWindowAppends) {
        window_refresh.views_refreshed += refresh.views_refreshed;
        window_refresh.groups_touched += refresh.groups_touched;
        window_refresh.delta_rows_scanned += refresh.delta_rows_scanned;
        window_refresh.indexes_rebuilt += refresh.indexes_rebuilt;
        window_refresh.index_entries_rebuilt += refresh.index_entries_rebuilt;
        window_column_bytes += MeasureColumnStores(catalog).compressed;
      }
      ++appends;
    }
    phase_end = NowNs();
    if (appends >= kColdWindowAppends &&
        NsToMs(phase_end - phase_start - driver_ns) >= options.seconds * 1e3) {
      break;
    }
  }
  double untraced_s = 0.0;
  for (double ms : untraced_op_ms) untraced_s += ms / 1e3;
  const double seconds =
      options.trace ? untraced_s
                    : NsToMs(phase_end - phase_start - driver_ns) / 1e3;
  AddSetupMetrics(p, &result);
  AddLoopMetrics(result, static_cast<double>(requests), seconds,
                 heap_peak_mib, request_ms, &result);
  std::printf("serve-cold: %llu untraced requests, %llu appends of %zu rows\n",
              static_cast<unsigned long long>(requests),
              static_cast<unsigned long long>(appends), kAppendRows);
  ReportValue("serve_qps", result.end_to_end["ops_per_s"].value, "1/s");
  ReportTimes("serve_latency_ms", request_ms, "ms");
  ReportTimes("append_ms", append_ms, "ms");
  double append_s = 0.0;
  for (double ms : append_ms) append_s += ms / 1e3;
  const double refresh_share = append_s / seconds;
  ReportValue("refresh_share", refresh_share, "fraction");

  auto& layer = result.per_layer;
  layer["engine.plan.us"] = {Median(plan_us), "us"};
  layer["engine.executor.execute_us"] = {Median(execute_us), "us"};
  layer["engine.executor.requests"] = {static_cast<double>(window_requests),
                                       "count"};
  layer["engine.executor.rows_processed"] = {static_cast<double>(window_rows),
                                             "count"};
  layer["engine.executor.rows_per_result_row"] = {
      static_cast<double>(window_rows) /
          static_cast<double>(std::max<uint64_t>(1, window_result_rows)),
      "ratio"};
  layer["engine.executor.raw_share"] = {
      static_cast<double>(window_raw) / static_cast<double>(window_requests),
      "ratio"};
  layer["engine.executor.columnar_share"] = {
      static_cast<double>(window_columnar) /
          static_cast<double>(window_requests),
      "ratio"};
  layer["engine.refresh.ms"] = {Median(traced_append_ms), "ms"};
  layer["engine.refresh.phase_share"] = {refresh_share, "fraction"};
  layer["engine.refresh.views_refreshed"] = {
      static_cast<double>(window_refresh.views_refreshed), "count"};
  layer["engine.refresh.delta_rows_scanned"] = {
      static_cast<double>(window_refresh.delta_rows_scanned), "count"};
  layer["engine.refresh.groups_touched"] = {
      static_cast<double>(window_refresh.groups_touched), "count"};
  layer["engine.refresh.index_entries_rebuilt"] = {
      window_refresh.index_entries_rebuilt, "count"};
  layer["engine.refresh.column_bytes_per_appended_row"] = {
      window_column_bytes /
          static_cast<double>(kColdWindowAppends * kAppendRows),
      "bytes/row"};
  if (options.trace) {
    AddTraceMetrics(log, phase_start, traced_ops, traced_op_ms,
                    untraced_op_ms, &result);
  }
  return result;
}

}  // namespace perfbench
