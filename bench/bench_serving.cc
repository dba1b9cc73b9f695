// Experiment E16 — throughput-grade serving (supports ROADMAP item 3):
// replay a sampled Zipf slice-query stream against a materialized sparse
// recommendation on a dim-8 cube, comparing {serial, batched} × {row,
// compressed-columnar} execution: the row configurations run over a
// catalog without column stores, the columnar ones over the same design
// compressed. Reports QPS, p50/p99 latency, and bytes scanned per
// configuration, the batched-over-serial speedup, and the columnar
// compression ratios (dim-8 catalog and the paper's TPC-D views). Batched
// results are self-checked bit-identical to serial execution over the
// same catalog before any timing runs.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_json.h"
#include "common/format.h"
#include "common/table_printer.h"
#include "core/advisor.h"
#include "cost/analytical_model.h"
#include "data/fact_generator.h"
#include "engine/batch_executor.h"
#include "engine/physical_design.h"
#include "workload/workload.h"

namespace olapidx {
namespace {

constexpr uint64_t kSeed = 42;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Mixed cardinalities so view sizes don't collapse into powers of one
// base (the bench_sparse_scale schema, at dim 8).
CubeSchema MakeSchema() {
  const uint64_t cards[] = {100, 200, 50, 80, 120, 60, 90, 40};
  std::vector<Dimension> dims;
  for (int i = 0; i < 8; ++i) {
    dims.push_back(Dimension{"d" + std::to_string(i), cards[i]});
  }
  return CubeSchema(dims);
}

// One replayed request: a workload query plus selection constants drawn
// from a fact row, so every slice is non-empty.
struct Request {
  SliceQuery query;
  std::vector<uint32_t> values;
  Request(SliceQuery q, std::vector<uint32_t> v)
      : query(std::move(q)), values(std::move(v)) {}
};

// Each query re-draws its selection constants from a small Zipf-weighted
// pool of slices: serving traffic replays popular dashboard slices, so
// the same (query, values) request recurs within a batch — the sharing
// the batched path coalesces.
constexpr size_t kValuePoolSize = 12;

std::vector<Request> SampleStream(const Workload& workload,
                                  const FactTable& fact, size_t stream_len,
                                  uint64_t seed) {
  // Cumulative frequency table for Zipf-weighted query draws.
  std::vector<double> cdf;
  double total = 0.0;
  for (const WeightedQuery& wq : workload.queries()) {
    total += wq.frequency;
    cdf.push_back(total);
  }
  Pcg32 rng(seed);
  // Per-query slice pools (value tuples from random fact rows) and the
  // Zipf CDF over pool ranks shared by every query.
  std::vector<std::vector<std::vector<uint32_t>>> pools(workload.size());
  for (size_t q = 0; q < workload.size(); ++q) {
    const SliceQuery& query = workload[q].query;
    for (size_t p = 0; p < kValuePoolSize; ++p) {
      size_t row = rng.NextBounded(static_cast<uint32_t>(fact.num_rows()));
      std::vector<uint32_t> values;
      for (int a : query.selection().ToVector()) {
        values.push_back(fact.dim(row, a));
      }
      pools[q].push_back(std::move(values));
    }
  }
  std::vector<double> pool_cdf;
  double pool_total = 0.0;
  for (size_t p = 0; p < kValuePoolSize; ++p) {
    pool_total += 1.0 / static_cast<double>(p + 1);  // Zipf(1) over ranks
    pool_cdf.push_back(pool_total);
  }
  std::vector<Request> stream;
  stream.reserve(stream_len);
  for (size_t i = 0; i < stream_len; ++i) {
    double draw = rng.NextDouble() * total;
    size_t pick = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), draw) - cdf.begin());
    if (pick >= workload.size()) pick = workload.size() - 1;
    double vdraw = rng.NextDouble() * pool_total;
    size_t vpick = static_cast<size_t>(
        std::lower_bound(pool_cdf.begin(), pool_cdf.end(), vdraw) -
        pool_cdf.begin());
    if (vpick >= kValuePoolSize) vpick = kValuePoolSize - 1;
    stream.emplace_back(workload[pick].query, pools[pick][vpick]);
  }
  return stream;
}

struct RunResult {
  std::string label;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  uint64_t rows_scanned = 0;   // physical rows decoded
  uint64_t bytes_scanned = 0;  // physical bytes read
};

double Percentile(std::vector<double>& samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(samples.size()));
  if (idx >= samples.size()) idx = samples.size() - 1;
  return samples[idx];
}

// `storage` labels the catalog: "row" without column stores, "columnar"
// with them.
RunResult RunSerial(const Catalog& catalog, const std::vector<Request>& stream,
                    const char* storage) {
  Executor exec(&catalog);
  RunResult out;
  out.label = std::string("serial/") + storage;
  std::vector<double> latencies_ms;
  latencies_ms.reserve(stream.size());
  ExecutionStats stats;
  double start = NowSeconds();
  for (const Request& req : stream) {
    double t0 = NowSeconds();
    GroupedResult r = exec.Execute(req.query, req.values, &stats);
    latencies_ms.push_back((NowSeconds() - t0) * 1e3);
    out.rows_scanned += stats.rows_processed;
    out.bytes_scanned += stats.bytes_scanned;
    // Keep the result alive past the timestamp so the compiler can't
    // sink the execution.
    if (r.num_rows() == SIZE_MAX) std::printf("impossible\n");
  }
  double elapsed = NowSeconds() - start;
  out.qps = static_cast<double>(stream.size()) / std::max(1e-9, elapsed);
  out.p50_ms = Percentile(latencies_ms, 0.50);
  out.p99_ms = Percentile(latencies_ms, 0.99);
  return out;
}

RunResult RunBatched(const Catalog& catalog,
                     const std::vector<Request>& stream, size_t batch_size,
                     size_t threads, const char* storage) {
  BatchExecutor exec(&catalog, threads);
  RunResult out;
  out.label = std::string("batched/") + storage;
  // A query's latency is its batch's wall time: batching trades a little
  // latency for throughput, and the percentiles should show that price.
  std::vector<double> latencies_ms;
  latencies_ms.reserve(stream.size());
  double start = NowSeconds();
  for (size_t begin = 0; begin < stream.size(); begin += batch_size) {
    size_t end = std::min(stream.size(), begin + batch_size);
    std::vector<SliceQuery> queries;
    std::vector<std::vector<uint32_t>> values;
    queries.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      queries.push_back(stream[i].query);
      values.push_back(stream[i].values);
    }
    BatchStats bstats;
    double t0 = NowSeconds();
    std::vector<GroupedResult> results =
        exec.ExecuteBatch(queries, values, nullptr, &bstats);
    double batch_ms = (NowSeconds() - t0) * 1e3;
    for (size_t i = begin; i < end; ++i) latencies_ms.push_back(batch_ms);
    out.rows_scanned += bstats.rows_decoded;
    out.bytes_scanned += bstats.bytes_scanned;
    if (results.size() == SIZE_MAX) std::printf("impossible\n");
  }
  double elapsed = NowSeconds() - start;
  out.qps = static_cast<double>(stream.size()) / std::max(1e-9, elapsed);
  out.p50_ms = Percentile(latencies_ms, 0.50);
  out.p99_ms = Percentile(latencies_ms, 0.99);
  return out;
}

bool BitEq(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Batched results over a given catalog must equal serial results over the
// same catalog bitwise; across the uncompressed and compressed catalogs
// keys and counts are exact and float aggregates agree to rounding.
void SelfCheck(const Catalog& row_catalog, const Catalog& columnar_catalog,
               const std::vector<Request>& stream, size_t batch_size,
               size_t threads) {
  size_t n = std::min(stream.size(), batch_size);
  std::vector<SliceQuery> queries;
  std::vector<std::vector<uint32_t>> values;
  for (size_t i = 0; i < n; ++i) {
    queries.push_back(stream[i].query);
    values.push_back(stream[i].values);
  }
  for (const Catalog* catalog : {&row_catalog, &columnar_catalog}) {
    Executor serial(catalog);
    BatchExecutor batched(catalog, threads);
    std::vector<GroupedResult> batch_results =
        batched.ExecuteBatch(queries, values);
    for (size_t i = 0; i < n; ++i) {
      GroupedResult expected = serial.Execute(queries[i], values[i]);
      OLAPIDX_CHECK(batch_results[i].keys == expected.keys);
      for (size_t r = 0; r < expected.num_rows(); ++r) {
        OLAPIDX_CHECK(BitEq(batch_results[i].sums[r], expected.sums[r]));
      }
    }
  }
  // Cross-storage: row vs columnar serial.
  Executor row_exec(&row_catalog);
  Executor col_exec(&columnar_catalog);
  for (size_t i = 0; i < n; ++i) {
    GroupedResult row = row_exec.Execute(queries[i], values[i]);
    GroupedResult col = col_exec.Execute(queries[i], values[i]);
    OLAPIDX_CHECK(row.keys == col.keys);
    for (size_t r = 0; r < row.num_rows(); ++r) {
      OLAPIDX_CHECK(row.aggregates[r].count == col.aggregates[r].count);
      double scale = std::max(1.0, std::abs(row.sums[r]));
      OLAPIDX_CHECK(std::abs(row.sums[r] - col.sums[r]) <= 1e-9 * scale);
    }
  }
}

// Compression ratio of every materialized view in `catalog` (compressed /
// row-store bytes), assuming stores are attached.
double CompressionRatio(const Catalog& catalog, uint64_t* compressed_out,
                        uint64_t* row_out) {
  uint64_t compressed = 0;
  uint64_t row = 0;
  for (AttributeSet attrs : catalog.materialized_views()) {
    const ColumnStore* store = catalog.column_store(attrs);
    OLAPIDX_CHECK(store != nullptr);
    compressed += store->CompressedBytes();
    row += ColumnStore::RowStoreBytes(catalog.view(attrs));
  }
  if (compressed_out != nullptr) *compressed_out = compressed;
  if (row_out != nullptr) *row_out = row;
  return static_cast<double>(compressed) /
         static_cast<double>(std::max<uint64_t>(1, row));
}

// The paper's TPC-D lattice, compressed in the views' own row order — the
// store's acceptance target, below half of row storage (also pinned by
// column_store_test).
double TpcdCompressionRatio() {
  FactTable fact = GenerateTpcdScaledFacts(TpcdScaledConfig{});
  Catalog catalog(&fact);
  for (uint32_t mask = 1; mask < 8; ++mask) {
    catalog.MaterializeView(AttributeSet::FromMask(mask));
  }
  catalog.CompressAllViews();
  return CompressionRatio(catalog, nullptr, nullptr);
}

void Run(bench::BenchJsonReporter* rep, size_t rows, size_t num_queries,
         size_t stream_len, size_t batch_size, size_t threads, double skew,
         double budget_factor) {
  std::printf("== E16: serving throughput — {serial, batched} x {row, "
              "columnar} ==\n\n");
  CubeSchema schema = MakeSchema();
  FactTable fact = GenerateZipfFacts(schema, rows, skew, kSeed);
  CubeLattice lattice(schema);
  Workload workload =
      SampledZipfSliceQueries(lattice, skew, num_queries, kSeed);

  // A sparse recommendation under a paper-style space budget, applied to
  // the engine catalog.
  ViewSizes sizes = AnalyticalViewSizes(schema, static_cast<double>(rows));
  StatusOr<Advisor> advisor =
      Advisor::CreateSparse(schema, sizes, workload);
  OLAPIDX_CHECK(advisor.ok());
  AdvisorConfig config;
  config.algorithm = Algorithm::kInnerLevel;
  config.space_budget = budget_factor * static_cast<double>(rows);
  Recommendation rec = advisor->Recommend(config);
  OLAPIDX_CHECK(rec.status.ok());
  // The design twice: row storage only, and compressed.
  Catalog row_catalog(&fact);
  Catalog catalog(&fact);
  std::vector<PhysicalDesignItem> items;
  for (const RecommendedStructure& s : rec.structures) {
    items.push_back(PhysicalDesignItem{s.view, s.index});
  }
  for (Catalog* c : {&row_catalog, &catalog}) {
    OLAPIDX_CHECK(MaterializePhysicalDesign(*c, items).ok());
  }
  size_t compressed_views = catalog.CompressAllViews();

  std::printf(
      "dim-8 Zipf(%.2f) cube: %zu rows, %zu distinct queries, stream of "
      "%zu\nrecommendation: %zu structure(s) (%zu views compressed), "
      "batch=%zu, threads=%zu\n\n",
      skew, fact.num_rows(), workload.size(), stream_len,
      rec.structures.size(), compressed_views, batch_size, threads);

  std::vector<Request> stream =
      SampleStream(workload, fact, stream_len, kSeed + 1);
  SelfCheck(row_catalog, catalog, stream, batch_size, threads);

  std::vector<RunResult> results;
  results.push_back(RunSerial(row_catalog, stream, "row"));
  results.push_back(RunSerial(catalog, stream, "columnar"));
  results.push_back(
      RunBatched(row_catalog, stream, batch_size, threads, "row"));
  results.push_back(
      RunBatched(catalog, stream, batch_size, threads, "columnar"));

  TablePrinter t({"config", "QPS", "p50 ms", "p99 ms", "Mrows scanned",
                  "MiB scanned"});
  for (const RunResult& r : results) {
    t.AddRow({r.label, FormatFixed(r.qps, 0), FormatFixed(r.p50_ms, 3),
              FormatFixed(r.p99_ms, 3),
              FormatFixed(static_cast<double>(r.rows_scanned) / 1e6, 2),
              FormatFixed(static_cast<double>(r.bytes_scanned) /
                              (1024.0 * 1024.0),
                          1)});
    if (rep != nullptr) {
      Json row = Json::Object();
      row.Set("label", Json::Str(r.label));
      row.Set("qps", Json::Number(r.qps));
      row.Set("p50_ms", Json::Number(r.p50_ms));
      row.Set("p99_ms", Json::Number(r.p99_ms));
      row.Set("rows_scanned", Json::Number(static_cast<double>(
                                  r.rows_scanned)));
      row.Set("bytes_scanned", Json::Number(static_cast<double>(
                                   r.bytes_scanned)));
      row.Set("threads",
              Json::Number(r.label.rfind("batched", 0) == 0
                               ? static_cast<double>(threads)
                               : 1.0));
      rep->AddRun(std::move(row));
    }
  }
  t.Print();

  double speedup_row = results[2].qps / std::max(1e-9, results[0].qps);
  double speedup_columnar =
      results[3].qps / std::max(1e-9, results[1].qps);
  uint64_t compressed_bytes = 0;
  uint64_t row_bytes = 0;
  double ratio = CompressionRatio(catalog, &compressed_bytes, &row_bytes);
  double tpcd_ratio = TpcdCompressionRatio();
  std::printf(
      "\nbatched-over-serial speedup: %.2fx (row), %.2fx (columnar)\n"
      "columnar compression: %.3fx of row storage on the dim-8 design "
      "(%.1f MiB -> %.1f MiB), %.3fx on the TPC-D views\n",
      speedup_row, speedup_columnar, ratio,
      static_cast<double>(row_bytes) / (1024.0 * 1024.0),
      static_cast<double>(compressed_bytes) / (1024.0 * 1024.0),
      tpcd_ratio);
  if (rep != nullptr) {
    rep->AddScalar("speedup_batched_over_serial_row", speedup_row);
    rep->AddScalar("speedup_batched_over_serial_columnar",
                   speedup_columnar);
    rep->AddScalar("compression_ratio", ratio);
    rep->AddScalar("tpcd_compression_ratio", tpcd_ratio);
    rep->AddScalar("threads", static_cast<double>(threads));
    rep->AddScalar("batch_size", static_cast<double>(batch_size));
  }
}

}  // namespace
}  // namespace olapidx

int main(int argc, char** argv) {
  olapidx::bench::BenchArgs args = olapidx::bench::ParseBenchArgs(
      argc, argv, "serving",
      {"rows", "queries", "stream", "batch", "threads", "skew", "budget"});
  olapidx::bench::BenchJsonReporter rep("serving");
  olapidx::Run(args.json ? &rep : nullptr,
               static_cast<size_t>(args.GetInt("rows", 40'000)),
               static_cast<size_t>(args.GetInt("queries", 64)),
               static_cast<size_t>(args.GetInt("stream", 4'096)),
               static_cast<size_t>(args.GetInt("batch", 1'024)),
               static_cast<size_t>(args.GetInt("threads", 8)),
               args.GetDouble("skew", 1.0), args.GetDouble("budget", 4.0));
  olapidx::bench::FinishBenchJson(rep, args);
  return 0;
}
