// Experiments E14/E17 — breaking the n ≤ 8 wall. The dense cube graph
// expands a full cost column per (view, query) and enumerates all m! fat
// indexes per view: at dimension 8 the cost table alone is ~2 GB, and
// 12–20 dimensions are out of reach entirely. This bench drives the
// workload-pruned sparse path (core/sparse_cube_graph.h, view-major table
// fill) with a sampled Zipf workload across dims 10/12/16/20 — build wall
// time, peak build memory (graph_build.peak_bytes model: query lists +
// cost tables + fill scratch), pruning telemetry
// (including views dropped by the --max-views cap), the cone positions the
// candidate-class gather enumerates (family_cone_visits), and a beam-limited
// inner-level greedy selection with its a-posteriori guarantee — and
// closes with a dense-vs-sparse peak-memory comparison at dimension 8
// (the last dim both paths can build), reported as the
// "peak_reduction_dim8" scalar. --peak-budget-mib=M turns the bench into
// an assertion: exit 1 if any sparse build's peak exceeds M MiB (the CI
// bench-smoke memory-regression gate).
//
//   bench_sparse_scale [--json[=FILE]] [--max-dim=20] [--queries=600]
//                      [--skew=1.1] [--beam=64] [--peak-budget-mib=M]

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.h"
#include "common/check.h"
#include "core/cube_graph.h"
#include "core/inner_greedy.h"
#include "core/sparse_cube_graph.h"
#include "cost/analytical_model.h"
#include "workload/workload.h"

namespace olapidx {
namespace {

constexpr uint64_t kSeed = 42;

double MiB(uint64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

// A mixed-cardinality schema; the cycle keeps view sizes from collapsing
// into powers of one base.
CubeSchema MakeSchema(int n) {
  const uint64_t cards[] = {100, 200, 50, 80, 120, 60, 90, 40};
  std::vector<Dimension> dims;
  dims.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    std::string name = "d";
    name += std::to_string(i);
    dims.push_back(Dimension{std::move(name), cards[i % 8]});
  }
  return CubeSchema(dims);
}

// Returns the build's peak bytes so RunBench can enforce --peak-budget-mib.
uint64_t RunSparseDim(bench::BenchJsonReporter& rep, int n,
                      size_t num_queries, double skew, size_t beam) {
  CubeSchema schema = MakeSchema(n);
  const double raw_rows = 20e6;
  ViewSizes sizes = AnalyticalViewSizes(schema, raw_rows);
  CubeLattice lattice(schema);
  Workload workload =
      SampledZipfSliceQueries(lattice, skew, num_queries, kSeed);

  SparseCubeGraphOptions sparse_options;
  // A raw-scan penalty (the advisor_cli default) makes the base-view pick
  // improve every query, so later stages carry a large dirty set — the
  // regime the beam is for.
  sparse_options.raw_scan_penalty = 2.0;
  auto start = std::chrono::steady_clock::now();
  StatusOr<SparseCubeGraph> built =
      TryBuildSparseCubeGraph(schema, sizes, workload, sparse_options);
  OLAPIDX_CHECK(built.ok());
  const double build_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  const SparseCubeGraph& sparse = *built;

  InnerGreedyOptions options;
  options.beam_width = beam;
  SelectionResult result =
      InnerLevelGreedy(sparse.cube.graph, 4.0 * raw_rows, options);
  OLAPIDX_CHECK(result.status.ok());

  const std::string label = "dim" + std::to_string(n) + "/sparse_beam" +
                            std::to_string(beam);
  rep.AddSelectionRun(
      label, result,
      {{"graph_build_ms", build_ms},
       {"peak_bytes", static_cast<double>(sparse.stats.build.peak_bytes)},
       {"retained_queries",
        static_cast<double>(sparse.stats.retained_queries)},
       {"retained_views", static_cast<double>(sparse.stats.retained_views)},
       {"views_dropped", static_cast<double>(sparse.stats.views_dropped)},
       {"candidate_indexes",
        static_cast<double>(sparse.stats.candidate_indexes)},
       {"family_cone_visits",
        static_cast<double>(sparse.stats.family_cone_visits)},
       {"beam_skipped", static_cast<double>(result.beam_skipped)},
       {"beam_stage_factor", result.beam_stage_factor}});

  std::printf("%-4d %8zu %8zu %8llu %10llu %11llu %12.1f %12.1f %7llu %8.4f\n",
              n, sparse.stats.retained_queries, sparse.stats.retained_views,
              static_cast<unsigned long long>(sparse.stats.views_dropped),
              static_cast<unsigned long long>(
                  sparse.cube.graph.num_structures()),
              static_cast<unsigned long long>(
                  sparse.stats.family_cone_visits),
              build_ms, MiB(sparse.stats.build.peak_bytes),
              static_cast<unsigned long long>(result.beam_skipped),
              result.beam_stage_factor);
  return sparse.stats.build.peak_bytes;
}

// Dense vs sparse peak build memory at dimension 8, full 3^8 workload.
// The dense peak comes from the graph_build.peak_bytes gauge when metrics
// are compiled in; the cost-table size is the metrics-off fallback (it
// understates the dense peak, so the reported reduction is conservative).
double PeakReductionDim8(bench::BenchJsonReporter& rep) {
  CubeSchema schema = MakeSchema(8);
  ViewSizes sizes = AnalyticalViewSizes(schema, 20e6);
  CubeLattice lattice(schema);
  Workload workload = AllSliceQueries(lattice);

  MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  auto start = std::chrono::steady_clock::now();
  StatusOr<CubeGraph> dense =
      TryBuildCubeGraph(schema, sizes, workload, CubeGraphOptions{});
  const double dense_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  OLAPIDX_CHECK(dense.ok());
  uint64_t dense_peak = dense->graph.CostTableBytes();
  for (const auto& [name, value] :
       MetricsRegistry::Global().Snapshot().gauges) {
    if (name == "graph_build.peak_bytes" && value > 0) {
      dense_peak = std::max(dense_peak, static_cast<uint64_t>(value));
    }
  }
  (void)before;

  start = std::chrono::steady_clock::now();
  StatusOr<SparseCubeGraph> sparse =
      TryBuildSparseCubeGraph(schema, sizes, workload, {});
  const double sparse_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
  OLAPIDX_CHECK(sparse.ok());
  const uint64_t sparse_peak = sparse->stats.build.peak_bytes;
  OLAPIDX_CHECK(sparse_peak > 0);
  const double reduction =
      static_cast<double>(dense_peak) / static_cast<double>(sparse_peak);

  Json row = Json::Object();
  row.Set("label", Json::Str("dim8/dense_vs_sparse"));
  row.Set("dense_peak_bytes", Json::Number(static_cast<double>(dense_peak)));
  row.Set("sparse_peak_bytes",
          Json::Number(static_cast<double>(sparse_peak)));
  row.Set("dense_build_ms", Json::Number(dense_ms));
  row.Set("sparse_build_ms", Json::Number(sparse_ms));
  rep.AddRun(std::move(row));
  rep.AddScalar("peak_reduction_dim8", reduction);

  std::printf("\ndim 8, full 3^8 workload: dense peak %.1f MiB, sparse "
              "peak %.1f MiB -> %.1fx reduction\n",
              MiB(dense_peak), MiB(sparse_peak), reduction);
  return reduction;
}

// Returns the largest sparse-build peak across the dims run, in bytes.
uint64_t RunBench(bench::BenchJsonReporter& rep, int max_dim,
                  size_t queries, double skew, size_t beam) {
  std::printf("%-4s %8s %8s %8s %10s %11s %12s %12s %7s %8s\n", "dim",
              "queries", "views", "dropped", "structures", "cone_visits",
              "build_ms", "peak_MiB", "skipped", "factor");
  uint64_t max_peak = 0;
  for (int n : {10, 12, 16, 20}) {
    if (n > max_dim) break;
    max_peak = std::max(max_peak, RunSparseDim(rep, n, queries, skew, beam));
  }
  PeakReductionDim8(rep);
  return max_peak;
}

}  // namespace
}  // namespace olapidx

int main(int argc, char** argv) {
  olapidx::bench::BenchArgs args = olapidx::bench::ParseBenchArgs(
      argc, argv, "sparse_scale",
      {"max-dim", "queries", "skew", "beam", "peak-budget-mib"});
  const int max_dim = static_cast<int>(args.GetInt("max-dim", 20));
  const long queries = args.GetInt("queries", 600);
  const double skew = args.GetDouble("skew", 1.1);
  const long beam = args.GetInt("beam", 64);
  const double peak_budget_mib = args.GetDouble("peak-budget-mib", 0.0);
  if (max_dim < 8 || max_dim > 20 || queries <= 0 || beam < 0 ||
      skew < 0.0 || peak_budget_mib < 0.0) {
    std::fprintf(stderr,
                 "error: bad --max-dim/--queries/--skew/--beam/"
                 "--peak-budget-mib\n");
    return 2;
  }
  olapidx::bench::BenchJsonReporter rep("sparse_scale");
  const uint64_t max_peak =
      olapidx::RunBench(rep, max_dim, static_cast<size_t>(queries), skew,
                        static_cast<size_t>(beam));
  olapidx::bench::FinishBenchJson(rep, args);
  if (peak_budget_mib > 0.0 &&
      static_cast<double>(max_peak) > peak_budget_mib * 1024.0 * 1024.0) {
    std::fprintf(stderr,
                 "error: sparse build peak %.1f MiB exceeds "
                 "--peak-budget-mib %.1f\n",
                 static_cast<double>(max_peak) / (1024.0 * 1024.0),
                 peak_budget_mib);
    return 1;
  }
  return 0;
}
