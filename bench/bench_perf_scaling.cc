// Experiment E11 — running-time scaling (google-benchmark). Section 5
// claims r-greedy runs in O(k·m^r) and inner-level greedy in O(k²·m²),
// where m is the number of structures; this bench measures wall time per
// full selection across cube dimensions (m grows factorially with n) and
// across r, plus index re-key/scan and group-by microbenchmarks for the
// engine.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.h"
#include "core/cube_graph.h"
#include "core/inner_greedy.h"
#include "core/optimal.h"
#include "core/r_greedy.h"
#include "core/two_step.h"
#include "data/fact_generator.h"
#include "data/synthetic.h"
#include "engine/view_index.h"
#include "workload/workload.h"

namespace olapidx {
namespace {

// One synthetic cube instance: the graph and the budget derived from the
// *same* build (the seed version rebuilt the cube a second time just to
// compute the budget, doubling setup cost).
struct ScalingSetup {
  CubeGraph cg;
  double budget = 0.0;
};

ScalingSetup MakeSetup(int n) {
  SyntheticCube cube = UniformSyntheticCube(n, 100, 0.05);
  CubeLattice lattice(cube.schema);
  CubeGraphOptions opts;
  opts.raw_scan_penalty = 2.0;
  ScalingSetup setup{bench::ValueOrExit(TryBuildCubeGraph(
                         cube.schema, cube.sizes, AllSliceQueries(lattice),
                         opts)),
                     0.0};
  setup.budget = 0.25 * (cube.sizes.TotalViewSpace() +
                         cube.sizes.TotalFatIndexSpace());
  return setup;
}

void ReportEvalCounters(benchmark::State& state,
                        const SelectionResult& res) {
  state.counters["evaluated"] =
      static_cast<double>(res.candidates_evaluated);
  state.counters["cache_hit_rate"] = res.stats.CacheHitRate();
}

void BM_RGreedy(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  int r = static_cast<int>(state.range(1));
  ScalingSetup setup = MakeSetup(n);
  SelectionResult last;
  for (auto _ : state) {
    last = RGreedy(setup.cg.graph, setup.budget,
                   RGreedyOptions{.r = r, .max_subsets_per_view = 100'000});
    benchmark::DoNotOptimize(last.final_cost);
  }
  ReportEvalCounters(state, last);
  state.counters["structures"] =
      static_cast<double>(setup.cg.graph.num_structures());
}
BENCHMARK(BM_RGreedy)
    ->ArgsProduct({{3, 4, 5}, {1, 2, 3}})
    ->Args({6, 1})
    ->Args({6, 2})
    ->Unit(benchmark::kMillisecond);

// Ablation: the same selection with memoization disabled — the seed's
// evaluate-everything-every-stage behavior.
void BM_RGreedyNoMemo(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  int r = static_cast<int>(state.range(1));
  ScalingSetup setup = MakeSetup(n);
  for (auto _ : state) {
    SelectionResult res =
        RGreedy(setup.cg.graph, setup.budget,
                RGreedyOptions{.r = r,
                               .max_subsets_per_view = 100'000,
                               .memoize = false});
    benchmark::DoNotOptimize(res.final_cost);
  }
}
BENCHMARK(BM_RGreedyNoMemo)
    ->Args({5, 2})
    ->Args({6, 2})
    ->Unit(benchmark::kMillisecond);

void BM_LazyOneGreedy(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  ScalingSetup setup = MakeSetup(n);
  SelectionResult last;
  for (auto _ : state) {
    last = RGreedy(setup.cg.graph, setup.budget,
                   RGreedyOptions{.r = 1, .lazy_one_greedy = true});
    benchmark::DoNotOptimize(last.final_cost);
  }
  ReportEvalCounters(state, last);
  state.counters["structures"] =
      static_cast<double>(setup.cg.graph.num_structures());
}
BENCHMARK(BM_LazyOneGreedy)->DenseRange(3, 6)->Unit(
    benchmark::kMillisecond);

void BM_InnerLevelGreedy(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  ScalingSetup setup = MakeSetup(n);
  SelectionResult last;
  for (auto _ : state) {
    last = InnerLevelGreedy(setup.cg.graph, setup.budget);
    benchmark::DoNotOptimize(last.final_cost);
  }
  ReportEvalCounters(state, last);
  // Cost-table cells read and column prices re-checked on the
  // per-position loop (core/column_pricer.h).
  state.counters["cost_cells"] = static_cast<double>(last.stats.cost_cells);
  state.counters["exact_rechecks"] =
      static_cast<double>(last.stats.exact_rechecks);
  state.counters["structures"] =
      static_cast<double>(setup.cg.graph.num_structures());
}
// Dim 7 is the dense advise shape (13,827 structures).
BENCHMARK(BM_InnerLevelGreedy)
    ->DenseRange(3, 7)
    ->Unit(benchmark::kMillisecond);

void BM_TwoStep(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  ScalingSetup setup = MakeSetup(n);
  for (auto _ : state) {
    SelectionResult res =
        TwoStep(setup.cg.graph, setup.budget, TwoStepOptions{});
    benchmark::DoNotOptimize(res.final_cost);
  }
}
BENCHMARK(BM_TwoStep)->DenseRange(3, 6)->Unit(benchmark::kMillisecond);

void BM_BranchAndBoundOptimal(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  ScalingSetup setup = MakeSetup(n);
  for (auto _ : state) {
    SelectionResult res =
        BranchAndBoundOptimal(setup.cg.graph, setup.budget);
    benchmark::DoNotOptimize(res.final_cost);
  }
}
BENCHMARK(BM_BranchAndBoundOptimal)
    ->DenseRange(2, 3)
    ->Unit(benchmark::kMillisecond);

void BM_TryBuildCubeGraph(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  SyntheticCube cube = UniformSyntheticCube(n, 100, 0.05);
  CubeLattice lattice(cube.schema);
  Workload w = AllSliceQueries(lattice);
  for (auto _ : state) {
    CubeGraph cg =
        bench::ValueOrExit(TryBuildCubeGraph(cube.schema, cube.sizes, w));
    benchmark::DoNotOptimize(cg.graph.num_structures());
  }
}
BENCHMARK(BM_TryBuildCubeGraph)->DenseRange(3, 6)->Unit(
    benchmark::kMillisecond);

// ---- Engine microbenchmarks ----

// serve-cold's refresh step on its base view: one fat index over a
// 250k-row, 8-dimension view is re-keyed after a 0.1% append. Rebuilding
// the pre-append view and index is left out of the time.
void BM_ViewIndexRekey(benchmark::State& state) {
  constexpr size_t kRows = 250'000;
  constexpr size_t kAppended = kRows / 1000;
  constexpr uint64_t kCardinalities[] = {100, 200, 50, 80, 120, 60, 90, 40};
  std::vector<Dimension> dims;
  for (uint64_t cardinality : kCardinalities) {
    dims.push_back(
        Dimension{"d" + std::to_string(dims.size()), cardinality});
  }
  const CubeSchema schema(std::move(dims));
  FactTable fact = GenerateZipfFacts(schema, kRows, /*skew=*/1.0, 42);
  const FactTable delta =
      GenerateZipfFacts(schema, kAppended, /*skew=*/1.0, 7);
  const AttributeSet all = schema.AllAttributes();
  const MaterializedView before = MaterializedView::FromFactTable(fact, all);
  for (size_t r = 0; r < delta.num_rows(); ++r) {
    fact.Append(delta.RowDims(r), delta.measure(r));
  }
  std::vector<int> key = all.ToVector();
  std::reverse(key.begin(), key.end());  // not the view's row order
  size_t entries = 0;
  for (auto _ : state) {
    state.PauseTiming();
    MaterializedView view = before;
    ViewIndex index(view, IndexKey(key));
    const std::vector<uint32_t> inserted =
        view.ApplyDelta(fact, kRows, fact.num_rows()).inserted_rows;
    state.ResumeTiming();
    index.Rekey(view, inserted);
    entries = index.num_entries();
    benchmark::DoNotOptimize(entries);
  }
  state.counters["entries"] = static_cast<double>(entries);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(entries));
}
BENCHMARK(BM_ViewIndexRekey)->Unit(benchmark::kMillisecond);

void BM_IndexPrefixScan(benchmark::State& state) {
  TpcdScaledConfig config;
  config.rows = static_cast<size_t>(state.range(0));
  FactTable fact = GenerateTpcdScaledFacts(config);
  MaterializedView view = MaterializedView::FromFactTable(
      fact, AttributeSet::Of({0, 1}));
  ViewIndex index(view, IndexKey({1, 0}));
  Pcg32 rng(2);
  for (auto _ : state) {
    uint32_t s = rng.NextBounded(config.suppliers);
    size_t rows = index.ScanPrefix({s}, [](uint32_t) {});
    benchmark::DoNotOptimize(rows);
  }
}
BENCHMARK(BM_IndexPrefixScan)->Arg(20'000)->Arg(60'000);

void BM_GroupByMaterialize(benchmark::State& state) {
  TpcdScaledConfig config;
  config.rows = static_cast<size_t>(state.range(0));
  FactTable fact = GenerateTpcdScaledFacts(config);
  for (auto _ : state) {
    MaterializedView v = MaterializedView::FromFactTable(
        fact, AttributeSet::Of({0, 1}));
    benchmark::DoNotOptimize(v.num_rows());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(config.rows));
}
BENCHMARK(BM_GroupByMaterialize)->Arg(20'000)->Arg(60'000);

// Deterministic selection sweep for --json mode: one full selection per
// (algorithm, dimension) cell with wall time from the algorithm's own
// EvaluationStats — no repetition statistics, but stable row content and
// schema. Used by the CI bench-smoke job and by the metrics-overhead
// measurement (compare wall_ms of two builds of this sweep). Each row
// carries the dimension's one-time graph-construction cost separately
// from the selection's own wall time ("graph_build_ms" vs
// "selection_ms"), so construction and selection scaling can be read
// apart from the same report.
void RunJsonSweep(bench::BenchJsonReporter& rep) {
  for (int n = 3; n <= 5; ++n) {
    auto build_start = std::chrono::steady_clock::now();
    ScalingSetup setup = MakeSetup(n);
    double graph_build_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() -
                                build_start)
                                .count();
    std::string dim = "dim" + std::to_string(n);
    auto add = [&](const std::string& label, const SelectionResult& res) {
      double selection_ms =
          static_cast<double>(res.stats.total_wall_micros) / 1000.0;
      rep.AddSelectionRun(label, res,
                          {{"graph_build_ms", graph_build_ms},
                           {"selection_ms", selection_ms}});
    };
    for (int r = 1; r <= 2; ++r) {
      add(dim + "/rgreedy_r" + std::to_string(r),
          RGreedy(setup.cg.graph, setup.budget,
                  RGreedyOptions{.r = r, .max_subsets_per_view = 100'000}));
    }
    add(dim + "/lazy_one_greedy",
        RGreedy(setup.cg.graph, setup.budget,
                RGreedyOptions{.r = 1, .lazy_one_greedy = true}));
    add(dim + "/inner_level",
        InnerLevelGreedy(setup.cg.graph, setup.budget));
    add(dim + "/two_step",
        TwoStep(setup.cg.graph, setup.budget, TwoStepOptions{}));
  }
}

}  // namespace
}  // namespace olapidx

// BENCHMARK_MAIN() rejects unrecognized flags, so --json is peeled off
// here: with it, the deterministic JSON sweep runs instead of the
// google-benchmark harness (whose own flags still work without --json).
int main(int argc, char** argv) {
  using olapidx::bench::BenchArgs;
  using olapidx::bench::BenchJsonReporter;
  BenchArgs json_args;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--json") {
      json_args.json = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        json_args.json_path = argv[++i];
      } else {
        json_args.json_path = "BENCH_perf_scaling.json";
      }
    } else if (arg.rfind("--json=", 0) == 0) {
      json_args.json = true;
      json_args.json_path = arg.substr(7);
      if (json_args.json_path.empty()) {
        json_args.json_path = "BENCH_perf_scaling.json";
      }
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  if (json_args.json) {
    BenchJsonReporter rep("perf_scaling");
    olapidx::RunJsonSweep(rep);
    olapidx::bench::FinishBenchJson(rep, json_args);
    return 0;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
