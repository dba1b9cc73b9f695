// SelectionResult: the output of every selection algorithm — the picked
// structures in pick order, the space they occupy, and τ before/after.

#ifndef OLAPIDX_CORE_SELECTION_RESULT_H_
#define OLAPIDX_CORE_SELECTION_RESULT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "core/query_view_graph.h"

namespace olapidx {

// Per-run telemetry of the selection loop: how much work each stage did
// and how much the benefit cache saved. Filled by the greedy algorithms;
// the branch-and-bound solver leaves everything but total_wall_micros 0.
struct EvaluationStats {
  // Greedy stages executed (= picks made by r-greedy / inner-level).
  uint64_t stages = 0;
  // Per-view evaluations served from the memoized benefit cache (the
  // view's version was unchanged since its last evaluation).
  uint64_t cache_hits = 0;
  // Per-view evaluations actually recomputed (dirty or first touch).
  uint64_t cache_misses = 0;
  // Dirty views whose re-evaluation was skipped because their stale
  // cached ratio — a valid upper bound under submodularity — could not
  // reach the best clean ratio of the stage (generalized CELF prune).
  uint64_t bound_prunes = 0;
  // Wall-clock μs per stage, in stage order, and their total.
  std::vector<uint64_t> stage_wall_micros;
  uint64_t total_wall_micros = 0;
  // Candidate evaluations per stage, parallel to stage_wall_micros; their
  // sum equals candidates_evaluated for the eager algorithms (the lazy
  // 1-greedy heap evaluates across stage boundaries and leaves this
  // empty). Covers only stages executed by this call (resumed runs start
  // fresh).
  std::vector<uint64_t> stage_candidates;
  // Worker threads used for candidate evaluation (1 = serial).
  size_t threads_used = 1;
  // Inner-level greedy's cost-table reads: (index, query position) pairs
  // on the per-position path plus (index, column group) pairs on the
  // column path (core/column_pricer.h), and the column prices it re-ran
  // on the per-position loop to keep every decision exact. Both are exact
  // at any thread count; the other algorithms leave them 0.
  uint64_t cost_cells = 0;
  uint64_t exact_rechecks = 0;
  // Inner-level greedy's parallel passes, per chunk (threads_used
  // entries), summed over stages: the chunk's busy wall-clock μs and the
  // cost cells it read. Chunks claim views dynamically, so the split of
  // cells varies from run to run; their sum is cost_cells exactly. Empty
  // for the other algorithms.
  std::vector<uint64_t> chunk_busy_micros;
  std::vector<uint64_t> chunk_cells;

  double CacheHitRate() const {
    uint64_t total = cache_hits + cache_misses;
    return total > 0 ? static_cast<double>(cache_hits) /
                           static_cast<double>(total)
                     : 0.0;
  }

  // The busiest chunk's busy time over the chunks' mean: 1 when the
  // chunks were equally busy, up to threads_used when one did all the
  // work. 1 when nothing was timed.
  double ChunkImbalance() const;

  // "4 stages, 123 evaluated / 456 cached (78.7% hit), 9 bound-pruned,
  // 1.2 ms, 1 thread".
  std::string ToString() const;
};

// A pick prefix to warm-start a selection run from — the in-memory form of
// an "olapidx-checkpoint v1" artifact (core/serialize.h). The greedy
// algorithms replay the picks into their SelectionState and continue;
// because each stage is a deterministic function of the state, the
// combined pick sequence is bit-identical to an uninterrupted run with the
// same graph, budget, and options.
struct ResumePicks {
  std::vector<StructureRef> picks;     // in original pick order
  std::vector<double> pick_benefits;   // parallel to picks (the a_i)
  // Greedy stages the prefix represents (one stage may pick several
  // structures); seeds EvaluationStats::stages on resume.
  uint64_t stages = 0;
};

struct SelectionResult {
  // Run outcome. OK = ran to completion. An interruption code
  // (status.IsInterruption(): deadline, cancellation, stage budget) =
  // stopped early and `picks` is the valid best-so-far prefix (anytime
  // contract). Any other code = the input was rejected or a fault was
  // injected; treat the result as empty.
  Status status;
  // Convenience mirror: true iff status.ok(). When false, stats.stages is
  // the stage the run stopped at.
  bool completed = true;
  std::vector<StructureRef> picks;  // in selection order
  // Incremental benefit of each pick at the time it was made (the a_i of
  // Theorem 5.1); one entry per pick.
  std::vector<double> pick_benefits;
  double space_used = 0.0;
  double initial_cost = 0.0;  // τ(G, ∅)
  double final_cost = 0.0;    // τ(G, M)
  // Accumulated maintenance cost of the selection (update-aware extension;
  // 0 under the paper's space-only model).
  double total_maintenance = 0.0;
  double total_frequency = 0.0;
  // Number of candidate sets whose benefit was evaluated (work measure).
  uint64_t candidates_evaluated = 0;
  // Number of index subsets skipped by the max_subsets_per_view cap across
  // all performed evaluations (0 = the enumeration was exhaustive; cached
  // evaluations are not re-counted).
  uint64_t candidates_truncated = 0;
  // Beam selection (RGreedyOptions / InnerGreedyOptions::beam_width):
  // dirty views whose re-evaluation was skipped by the per-stage beam cap.
  // Unlike bound_prunes these are *not* provably non-winning — the
  // a-posteriori guarantee below accounts for them.
  uint64_t beam_skipped = 0;
  // A-posteriori guarantee of a beam-limited run: the minimum over stages
  // of ρ_picked / max(ρ_picked, best skipped stale bound). Every stage's
  // pick achieved at least this fraction of the best benefit-per-space
  // ratio any beam-skipped candidate could have offered at that stage.
  // 1.0 when nothing was ever skipped (beam_width = 0 or a wide beam);
  // then the run is exactly the unbeamed greedy.
  double beam_stage_factor = 1.0;
  // Work/caching/timing telemetry of the selection loop.
  EvaluationStats stats;
  // Process-wide metrics registry delta attributed to this run — captured
  // fresh per call (never accumulated across runs reusing an Advisor or
  // options object), empty under OLAPIDX_METRICS=OFF. Concurrent
  // selections in other threads bleed into each other's deltas; the
  // repository's entry points run selections serially.
  MetricsSnapshot metrics;
  // True iff the result is provably optimal for its budget (set only by the
  // branch-and-bound solver when it runs to completion).
  bool proven_optimal = false;

  // An empty result carrying a rejection status (malformed input, injected
  // fault): the uniform "total function" failure value of the selection
  // entry points.
  static SelectionResult Rejected(Status status) {
    SelectionResult result;
    result.status = std::move(status);
    result.completed = false;
    return result;
  }

  // B(M, ∅), the absolute benefit of the selection (net of maintenance).
  double Benefit() const {
    return initial_cost - final_cost - total_maintenance;
  }

  // Frequency-weighted average query cost, the metric Example 2.1 reports
  // ("an average query cost of 0.74M rows").
  double AverageQueryCost() const {
    return total_frequency > 0.0 ? final_cost / total_frequency : 0.0;
  }

  // Human-readable list of picked structures: "psc, I_ps(psc), ...".
  std::string PicksToString(const QueryViewGraph& graph) const;
};

}  // namespace olapidx

#endif  // OLAPIDX_CORE_SELECTION_RESULT_H_
