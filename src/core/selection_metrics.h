// Shared instrumentation for the selection cores (greedy_driver.h and its
// callers r_greedy.cc, inner_greedy.cc): the metric names and the
// aggregation points, so the eager and lazy loops report
// identically-named metrics.
//
// Everything is recorded once per run from the totals and per-stage
// vectors the result already tracks: the hot loops gain no per-candidate
// atomics, and even the per-stage histograms are folded in as one batch
// at end of run. Observing them inside the stage loop costs two scattered
// sets of histogram-shard cache lines per stage — measurable against the
// cache-resident evaluation loop (bench_perf_scaling dim-5) — while the
// batch records the identical observations for a fraction of that.
// Everything is a no-op under OLAPIDX_METRICS=OFF.

#ifndef OLAPIDX_CORE_SELECTION_METRICS_H_
#define OLAPIDX_CORE_SELECTION_METRICS_H_

#include <cmath>

#include "common/metrics.h"
#include "core/selection_result.h"

namespace olapidx::selection_metrics {

// One selection run finished; folds the run's exact totals and per-stage
// series into the process-wide registry. `stages_this_call` excludes
// replayed checkpoint stages (which did no work in this call) — the
// stage vectors already contain only this call's stages, including the
// terminating no-winner probe. Kept out of line so the registry machinery
// (static-init guards, shard lookups) never lands inside the callers'
// stage loops.
[[gnu::noinline]] inline void RecordRun(const SelectionResult& result,
                                        uint64_t stages_this_call) {
  OLAPIDX_METRIC_COUNTER(runs, "selection.runs");
  OLAPIDX_METRIC_COUNTER(stages, "selection.stages");
  OLAPIDX_METRIC_COUNTER(candidates, "selection.candidates_evaluated");
  OLAPIDX_METRIC_COUNTER(truncated, "selection.candidates_truncated");
  OLAPIDX_METRIC_COUNTER(cache_hits, "selection.cache_hits");
  OLAPIDX_METRIC_COUNTER(cache_misses, "selection.cache_misses");
  OLAPIDX_METRIC_COUNTER(bound_prunes, "selection.bound_prunes");
  OLAPIDX_METRIC_COUNTER(cost_cells, "selection.cost_cells");
  OLAPIDX_METRIC_COUNTER(exact_rechecks, "selection.exact_rechecks");
  OLAPIDX_METRIC_HISTOGRAM(run_wall, "selection.run_micros");
  OLAPIDX_METRIC_HISTOGRAM(stage_wall, "selection.stage_micros");
  OLAPIDX_METRIC_HISTOGRAM(stage_cands, "selection.stage_candidates");
  // The latest run's chunk imbalance (EvaluationStats::ChunkImbalance), in
  // thousandths: 1000 is balanced. Set only by runs that time their
  // chunks (the eager greedies; the lazy 1-greedy has no chunks).
  OLAPIDX_METRIC_GAUGE(chunk_imbalance, "selection.chunk_imbalance_permille");
  runs.Add(1);
  stages.Add(stages_this_call);
  candidates.Add(result.candidates_evaluated);
  truncated.Add(result.candidates_truncated);
  cache_hits.Add(result.stats.cache_hits);
  cache_misses.Add(result.stats.cache_misses);
  bound_prunes.Add(result.stats.bound_prunes);
  cost_cells.Add(result.stats.cost_cells);
  exact_rechecks.Add(result.stats.exact_rechecks);
  run_wall.Observe(result.stats.total_wall_micros);
  for (uint64_t micros : result.stats.stage_wall_micros) {
    stage_wall.Observe(micros);
  }
  for (uint64_t count : result.stats.stage_candidates) {
    stage_cands.Observe(count);
  }
  if (!result.stats.chunk_busy_micros.empty()) {
    chunk_imbalance.Set(
        std::llround(1000.0 * result.stats.ChunkImbalance()));
  }
}

}  // namespace olapidx::selection_metrics

#endif  // OLAPIDX_CORE_SELECTION_METRICS_H_
