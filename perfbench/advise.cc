// The `advise` workload: an operator asking "what should I build?". One
// client repeats a round of three requests and times each call from
// outside:
//  * dense advise  — Advisor::Create + Recommend on the flat dim-7 cube
//    (all 3^7 slice queries, fat indexes, inner-level greedy): mostly
//    selection;
//  * sparse advise — Advisor::CreateSparse + Recommend on a dim-20 cube
//    with 600 sampled Zipf(1.1) queries under the default max_views cap
//    (beam 64): mostly graph build;
//  * what-if sweep — a 3-budget AdvisorService::WhatIf on a resident
//    service over a dim-6 cube.
// The engine does no work here.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/journal.h"
#include "core/advisor.h"
#include "cost/analytical_model.h"
#include "data/synthetic.h"
#include "service/advisor_service.h"
#include "workload/workload.h"
#include "workloads.h"

namespace perfbench {
namespace {

using olapidx::Advisor;
using olapidx::AdvisorService;
using olapidx::StatusOr;

// Mixed cardinalities so view sizes do not collapse into powers of one
// base; the sparse cube cycles through them.
constexpr uint64_t kCardinalities[] = {100, 200, 50, 80, 120, 60, 90};
constexpr double kRawRows = 20e6;
constexpr double kDenseBudget = 80e6;
constexpr double kSparseBudget = 200e6;
constexpr double kRawScanPenalty = 2.0;
constexpr size_t kSparseQueries = 600;
constexpr double kSparseSkew = 1.1;
constexpr size_t kBeamWidth = 64;
constexpr uint64_t kDatasetSeed = 42;
// Service bring-ups before the timed phase, and after every round; setup_s
// is the median of all of them.
constexpr uint64_t kSetupsBefore = 5;
constexpr uint64_t kSetupsPerRound = 2;
// Two rounds at least: the digest check compares repetitions, and a traced
// run needs one traced and one untraced round.
constexpr uint64_t kMinRounds = 2;
// No what-if point may be cut short.
constexpr int64_t kWhatIfDeadlineMs = 600'000;

struct Problem {
  olapidx::CubeSchema schema;
  olapidx::ViewSizes sizes;
  olapidx::Workload workload;
};

struct Inputs {
  Problem dense;
  Problem sparse;
  Problem whatif;
};

olapidx::CubeSchema CycleSchema(int n) {
  std::vector<olapidx::Dimension> dims;
  for (int i = 0; i < n; ++i) {
    dims.push_back(olapidx::Dimension{"d" + std::to_string(i),
                                      kCardinalities[i % 7]});
  }
  return olapidx::CubeSchema(std::move(dims));
}

// The seed reweights each query's frequency by a factor in [0.9, 1.1);
// the cubes and the sampled query sets are fixed (kDatasetSeed), so the
// spread between seeds measures the system rather than the dataset.
olapidx::Workload Reweighted(const olapidx::Workload& workload, uint64_t seed,
                             uint64_t stream) {
  olapidx::Pcg32 rng(seed, stream);
  olapidx::Workload out;
  for (const olapidx::WeightedQuery& wq : workload.queries()) {
    out.Add(wq.query, wq.frequency * (0.9 + 0.2 * rng.NextDouble()));
  }
  return out;
}

Inputs MakeInputs(uint64_t seed) {
  olapidx::CubeSchema dense_schema = CycleSchema(7);
  olapidx::Workload all =
      Reweighted(olapidx::AllSliceQueries(olapidx::CubeLattice(dense_schema)),
                 seed, 1);
  olapidx::CubeSchema sparse_schema = CycleSchema(20);
  olapidx::Workload sampled = Reweighted(
      olapidx::SampledZipfSliceQueries(olapidx::CubeLattice(sparse_schema),
                                       kSparseSkew, kSparseQueries,
                                       kDatasetSeed),
      seed, 2);
  olapidx::SyntheticCube cube = olapidx::UniformSyntheticCube(6, 8, 0.3);
  olapidx::Workload zipf = Reweighted(
      olapidx::ZipfSliceQueries(olapidx::CubeLattice(cube.schema), 1.0,
                                kDatasetSeed),
      seed, 3);
  olapidx::ViewSizes dense_sizes =
      olapidx::AnalyticalViewSizes(dense_schema, kRawRows);
  olapidx::ViewSizes sparse_sizes =
      olapidx::AnalyticalViewSizes(sparse_schema, kRawRows);
  return Inputs{
      Problem{std::move(dense_schema), std::move(dense_sizes), std::move(all)},
      Problem{std::move(sparse_schema), std::move(sparse_sizes),
              std::move(sampled)},
      Problem{std::move(cube.schema), std::move(cube.sizes), std::move(zipf)}};
}

olapidx::ServiceOptions WhatIfServiceOptions(const Problem& problem,
                                             size_t threads) {
  olapidx::ServiceOptions options;
  options.base.algorithm = olapidx::Algorithm::kInnerLevel;
  options.base.space_budget = 0.25 * problem.sizes.TotalViewSpace();
  options.graph.raw_scan_penalty = kRawScanPenalty;
  options.graph.num_threads = threads;
  options.sparse.num_threads = threads;
  options.default_deadline_ms = kWhatIfDeadlineMs;
  options.reselect_deadline_ms = kWhatIfDeadlineMs;
  return options;
}

// One advise request: graph build then selection, with its measured heap.
struct AdviseOp {
  bool ok = false;
  std::string error;
  double build_ms = 0.0;
  double select_ms = 0.0;
  // Peak live heap above the request's starting point: through the graph
  // build, and through the whole request.
  int64_t build_heap_bytes = 0;
  int64_t heap_bytes = 0;
  int64_t heap_peak_bytes = 0;  // absolute process peak during the request
  uint64_t structures = 0;
  uint64_t fingerprint = 0;
  uint64_t design = 0;
  double cost_ratio = 0.0;
  uint64_t candidates_evaluated = 0;
  uint64_t bound_prunes = 0;
  uint64_t stages = 0;
  uint64_t beam_skipped = 0;
  double cache_hit_ratio = 0.0;
  // Sparse only.
  uint64_t views_dropped = 0;
  uint64_t model_peak_bytes = 0;
};

uint64_t DesignDigest(const olapidx::Recommendation& rec) {
  uint64_t h = 0;
  for (const olapidx::RecommendedStructure& s : rec.structures) {
    h = olapidx::Fnv1a64(s.name, h);
  }
  for (double v : {rec.space_used, rec.average_query_cost}) {
    h = olapidx::Fnv1a64(&v, sizeof(v), h);
  }
  return h;
}

AdviseOp Advise(const Problem& problem, bool sparse, size_t threads,
                SpanLog& log, uint64_t request) {
  AdviseOp op;
  ResetHeapPeak();
  const int64_t base = HeapLiveBytes();
  const int64_t t0 = NowNs();
  StatusOr<Advisor> advisor = [&] {
    ScopedSpan span(log, "core.graph_build", request);
    if (sparse) {
      olapidx::SparseCubeGraphOptions options;
      options.raw_scan_penalty = kRawScanPenalty;
      options.num_threads = threads;
      return Advisor::CreateSparse(problem.schema, problem.sizes,
                                   problem.workload, options);
    }
    olapidx::CubeGraphOptions options;
    options.raw_scan_penalty = kRawScanPenalty;
    options.num_threads = threads;
    return Advisor::Create(problem.schema, problem.sizes, problem.workload,
                           options);
  }();
  const int64_t t1 = NowNs();
  op.build_ms = NsToMs(t1 - t0);
  op.build_heap_bytes = HeapPeakBytes() - base;
  if (!advisor.ok()) {
    op.error = advisor.status().ToString();
    return op;
  }
  olapidx::AdvisorConfig config;
  config.algorithm = olapidx::Algorithm::kInnerLevel;
  config.space_budget = sparse ? kSparseBudget : kDenseBudget;
  config.inner_greedy.num_threads = threads;
  if (sparse) config.inner_greedy.beam_width = kBeamWidth;
  olapidx::Recommendation rec = [&] {
    ScopedSpan span(log, "core.selection", request);
    return advisor->Recommend(config);
  }();
  op.select_ms = NsToMs(NowNs() - t1);
  op.heap_bytes = HeapPeakBytes() - base;
  op.heap_peak_bytes = HeapPeakBytes();
  op.ok = rec.status.ok();
  if (!op.ok) op.error = rec.status.ToString();
  op.structures = advisor->cube_graph().graph.num_structures();
  op.fingerprint = advisor->graph_fingerprint();
  op.design = DesignDigest(rec);
  op.cost_ratio = rec.average_query_cost / rec.initial_average_cost;
  op.candidates_evaluated = rec.raw.candidates_evaluated;
  op.bound_prunes = rec.raw.stats.bound_prunes;
  op.stages = rec.raw.stats.stages;
  op.beam_skipped = rec.raw.beam_skipped;
  op.cache_hit_ratio = rec.raw.stats.CacheHitRate();
  if (const olapidx::SparseBuildStats* stats = advisor->sparse_stats()) {
    op.views_dropped = stats->views_dropped;
    op.model_peak_bytes = stats->build.peak_bytes;
  }
  return op;
}

struct SweepOp {
  bool ok = false;
  std::string error;
  double ms = 0.0;
  uint64_t points_completed = 0;
  uint64_t digest = 0;
  int64_t heap_peak_bytes = 0;
};

SweepOp Sweep(AdvisorService& service, double budget, SpanLog& log,
              uint64_t request) {
  olapidx::WhatIfRequest what_if;
  what_if.budgets = {0.5 * budget, budget, 2.0 * budget};
  what_if.deadline_ms = kWhatIfDeadlineMs;
  SweepOp op;
  ResetHeapPeak();
  const int64_t t0 = NowNs();
  olapidx::WhatIfResult result = [&] {
    ScopedSpan span(log, "service", request);
    return service.WhatIf(what_if);
  }();
  op.ms = NsToMs(NowNs() - t0);
  op.heap_peak_bytes = HeapPeakBytes();
  op.ok = result.status.ok() && result.points.size() == what_if.budgets.size();
  if (!result.status.ok()) op.error = result.status.ToString();
  for (const olapidx::WhatIfPoint& p : result.points) {
    if (p.completed && p.status.ok()) ++op.points_completed;
    op.ok = op.ok && p.completed && p.status.ok();
    for (double v : {p.budget, p.space_used, p.average_query_cost}) {
      op.digest = olapidx::Fnv1a64(&v, sizeof(v), op.digest);
    }
    for (const std::string& name : p.added) {
      op.digest = olapidx::Fnv1a64(name, op.digest);
    }
    for (const std::string& name : p.removed) {
      op.digest = olapidx::Fnv1a64(name, op.digest ^ 1);
    }
  }
  return op;
}

}  // namespace

RunResult RunAdvise(const RunOptions& options, SpanLog& log) {
  RunResult result;
  log.set_enabled(options.trace);
  const int64_t g0 = NowNs();
  Inputs in = [&] {
    ScopedSpan span(log, "data", 0);
    return MakeInputs(options.seed);
  }();
  const double generate_ms = NsToMs(NowNs() - g0);

  // Setup: the resident what-if service (graph build + initial selection).
  // The last bring-up before the timed phase serves the sweeps. The ones
  // after each round are discarded; they make setup_s a median over the
  // whole run rather than over one moment of a shared host.
  const olapidx::ServiceOptions service_options =
      WhatIfServiceOptions(in.whatif, options.threads);
  std::vector<double> setup_s;
  const auto bring_up = [&](uint64_t id) -> std::unique_ptr<AdvisorService> {
    const int64_t t0 = NowNs();
    StatusOr<std::unique_ptr<AdvisorService>> created = [&] {
      ScopedSpan root(log, "setup", id);
      ScopedSpan span(log, "service", id);
      return AdvisorService::Create(in.whatif.schema, in.whatif.sizes,
                                    in.whatif.workload, service_options);
    }();
    setup_s.push_back(NsToMs(NowNs() - t0) / 1e3);
    result.Tally(created.ok());
    if (!created.ok()) {
      result.Check(false, "AdvisorService::Create: " +
                              created.status().ToString());
      return nullptr;
    }
    return std::move(*created);
  };
  std::unique_ptr<AdvisorService> service;
  for (uint64_t i = 0; i < kSetupsBefore; ++i) {
    service.reset();
    service = bring_up(i);
    if (service == nullptr) return result;
  }
  log.set_enabled(false);

  // Timed phase: rounds of dense advise, sparse advise, what-if sweep.
  std::vector<double> dense_s, sparse_s, sweep_ms, round_ms, traced_round_ms;
  std::vector<double> dense_heap_mib, sparse_heap_mib, heap_peak_mib;
  std::vector<double> dense_build_ms, dense_select_ms, sparse_build_ms,
      sparse_select_ms, traced_sweep_ms;
  AdviseOp first_dense, first_sparse;
  SweepOp first_sweep;
  uint64_t traced_rounds = 0;
  // Time of the bring-ups between rounds, left out of the phase's time.
  int64_t setup_ns = 0;
  const int64_t phase_start = NowNs();
  for (uint64_t round = 0;; ++round) {
    const bool traced = Traced(options, round);
    log.set_enabled(traced);
    const int64_t t0 = NowNs();
    AdviseOp dense, sparse;
    SweepOp sweep;
    {
      ScopedSpan span(log, "advise.dense", round);
      dense = Advise(in.dense, false, options.threads, log, round);
    }
    {
      ScopedSpan span(log, "advise.sparse", round);
      sparse = Advise(in.sparse, true, options.threads, log, round);
    }
    {
      ScopedSpan span(log, "advise.whatif", round);
      sweep = Sweep(*service, service_options.base.space_budget, log, round);
    }
    const double ms = NsToMs(NowNs() - t0);
    log.set_enabled(false);

    result.Tally(dense.ok);
    result.Tally(sparse.ok);
    result.Tally(sweep.ok);
    result.Check(dense.ok, "dense advise: " + dense.error);
    result.Check(sparse.ok, "sparse advise: " + sparse.error);
    result.Check(sweep.ok, "what-if sweep: " + sweep.error);
    if (round == 0) {
      first_dense = dense;
      first_sparse = sparse;
      first_sweep = sweep;
      result.Check(dense.cost_ratio <= 1.0, "dense cost ratio above 1");
      result.Check(sparse.cost_ratio <= 1.0, "sparse cost ratio above 1");
    } else {
      result.Check(dense.design == first_dense.design &&
                       dense.fingerprint == first_dense.fingerprint,
                   "dense advise repeated with another design or graph");
      result.Check(sparse.design == first_sparse.design &&
                       sparse.fingerprint == first_sparse.fingerprint,
                   "sparse advise repeated with another design or graph");
      result.Check(sweep.digest == first_sweep.digest,
                   "what-if sweep repeated with other points");
    }
    if (traced) {
      ++traced_rounds;
      traced_round_ms.push_back(ms);
      dense_build_ms.push_back(dense.build_ms);
      dense_select_ms.push_back(dense.select_ms);
      sparse_build_ms.push_back(sparse.build_ms);
      sparse_select_ms.push_back(sparse.select_ms);
      traced_sweep_ms.push_back(sweep.ms);
    } else {
      round_ms.push_back(ms);
      dense_s.push_back((dense.build_ms + dense.select_ms) / 1e3);
      sparse_s.push_back((sparse.build_ms + sparse.select_ms) / 1e3);
      sweep_ms.push_back(sweep.ms);
      heap_peak_mib.push_back(
          static_cast<double>(std::max({dense.heap_peak_bytes,
                                        sparse.heap_peak_bytes,
                                        sweep.heap_peak_bytes})) /
          kMiB);
    }
    dense_heap_mib.push_back(static_cast<double>(dense.heap_bytes) / kMiB);
    sparse_heap_mib.push_back(static_cast<double>(sparse.heap_bytes) / kMiB);
    const int64_t s0 = NowNs();
    for (uint64_t i = 0; i < kSetupsPerRound; ++i) {
      if (bring_up(kSetupsBefore + round * kSetupsPerRound + i) == nullptr) {
        return result;
      }
    }
    setup_ns += NowNs() - s0;
    if (round + 1 >= kMinRounds &&
        NsToMs(NowNs() - phase_start - setup_ns) >= options.seconds * 1e3) {
      break;
    }
  }
  for (uint64_t v : {first_dense.design, first_dense.fingerprint,
                     first_sparse.design, first_sparse.fingerprint,
                     first_sweep.digest}) {
    result.Mix(v);
  }

  const double round_total_ms = [&] {
    double sum = 0.0;
    for (double ms : round_ms) sum += ms;
    return sum;
  }();
  auto& e2e = result.end_to_end;
  e2e["setup_s"] = {Median(setup_s), "s"};
  e2e["peak_rss_mib"] = {PeakRssMib(), "MiB"};
  e2e["heap_peak_mib"] = {Median(heap_peak_mib), "MiB"};
  e2e["ok_frac"] = {static_cast<double>(result.attempted - result.failed) /
                        static_cast<double>(result.attempted),
                    "fraction"};
  e2e["ops_per_s"] = {static_cast<double>(round_ms.size()) /
                          (round_total_ms / 1e3),
                      "1/s"};
  e2e["op_p50_ms"] = {Median(round_ms), "ms"};
  e2e["cost_ratio"] = {(first_dense.cost_ratio + first_sparse.cost_ratio) / 2,
                       "ratio"};

  std::printf("advise: %zu untraced + %llu traced rounds\n", round_ms.size(),
              static_cast<unsigned long long>(traced_rounds));
  ReportTimes("dense_advise_s", dense_s, "s");
  ReportTimes("sparse_advise_s", sparse_s, "s");
  ReportTimes("whatif_sweep_ms", sweep_ms, "ms");
  ReportValue("dense_heap_peak_mib", Median(dense_heap_mib), "MiB");
  ReportValue("sparse_heap_peak_mib", Median(sparse_heap_mib), "MiB");
  ReportValue("dense_cost_ratio", first_dense.cost_ratio, "");
  ReportValue("sparse_cost_ratio", first_sparse.cost_ratio, "");

  auto& layer = result.per_layer;
  layer["data.generate_ms"] = {generate_ms, "ms"};
  layer["core.graph_build.dense_ms"] = {Median(dense_build_ms), "ms"};
  layer["core.graph_build.sparse_ms"] = {Median(sparse_build_ms), "ms"};
  layer["core.graph_build.dense_structures"] = {
      static_cast<double>(first_dense.structures), "count"};
  layer["core.graph_build.sparse_structures"] = {
      static_cast<double>(first_sparse.structures), "count"};
  layer["core.graph_build.views_dropped"] = {
      static_cast<double>(first_sparse.views_dropped), "count"};
  layer["core.graph_build.heap_model_ratio"] = {
      static_cast<double>(first_sparse.build_heap_bytes) /
          static_cast<double>(std::max<uint64_t>(1, first_sparse.model_peak_bytes)),
      "x"};
  layer["core.dense_heap_peak_mib"] = {Median(dense_heap_mib), "MiB"};
  layer["core.sparse_heap_peak_mib"] = {Median(sparse_heap_mib), "MiB"};
  layer["core.selection.dense_ms"] = {Median(dense_select_ms), "ms"};
  layer["core.selection.sparse_ms"] = {Median(sparse_select_ms), "ms"};
  for (const auto& [prefix, op] :
       {std::pair<const char*, const AdviseOp*>{"dense", &first_dense},
        std::pair<const char*, const AdviseOp*>{"sparse", &first_sparse}}) {
    const std::string p = std::string("core.selection.") + prefix;
    layer[p + "_candidates_evaluated"] = {
        static_cast<double>(op->candidates_evaluated), "count"};
    layer[p + "_bound_prunes"] = {static_cast<double>(op->bound_prunes),
                                  "count"};
    layer[p + "_stages"] = {static_cast<double>(op->stages), "count"};
    layer[p + "_beam_skipped"] = {static_cast<double>(op->beam_skipped),
                                  "count"};
    layer[p + "_cache_hit_ratio"] = {op->cache_hit_ratio, "ratio"};
    layer[p + "_cost_ratio"] = {op->cost_ratio, "ratio"};
  }
  layer["service.whatif_ms"] = {Median(traced_sweep_ms), "ms"};
  layer["service.whatif_points_completed"] = {
      static_cast<double>(first_sweep.points_completed), "count"};
  if (options.trace) {
    AddTraceMetrics(log, phase_start, traced_rounds, traced_round_ms, round_ms,
                    &result);
  }
  return result;
}

}  // namespace perfbench
