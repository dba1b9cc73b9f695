// The stage loop of the eager greedy cores, r-greedy (r_greedy.cc) and
// inner-level greedy (inner_greedy.cc), and the run prologue and epilogue
// every greedy shares, the lazy 1-greedy included.
//
// Both eager algorithms are one loop: at each stage every view proposes
// its best candidate, and the best benefit per unit space wins. They
// differ only in how a view finds its candidate and what certified bound
// it keeps on every candidate it can propose later. Each passes that as a
// per-view evaluator, a template parameter, so no view pays an indirect
// call.
//
// A stage:
//   1. Clean slots (memoized, view version unchanged) are exact; the best
//      clean ratio becomes the prune threshold.
//   2. A dirty view whose certified stale bound cannot reach it cannot win
//      the stage, so its re-evaluation is skipped. The slot stays stale and
//      its bound stays valid: benefits are monotone non-increasing.
//   3. Beam: of the dirty views with a certified bound, only the
//      beam_width with the largest bounds are re-evaluated; the rest are
//      deferred. A deferred slot's stale ratio overestimates, so it is kept
//      out of the reduction and accounted in beam_stage_factor. Views with
//      no certified bound (first touch, a pick on the view, a truncated
//      enumeration) are always evaluated.
//   4. The dirty views are evaluated on the pool, heaviest first.
//   5. A deterministic reduction over all views (ascending view id,
//      strictly greater ratio wins) picks the winner. Bound-pruned slots
//      cannot win: their ratio is at most their bound, strictly below the
//      best clean ratio, which itself takes part. If the beam hid every
//      positive candidate, the deferred views are evaluated after all, so
//      a beam run never stops before the exact one would.

#ifndef OLAPIDX_CORE_GREEDY_DRIVER_H_
#define OLAPIDX_CORE_GREEDY_DRIVER_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/selection_metrics.h"
#include "core/selection_result.h"
#include "core/selection_state.h"

namespace olapidx {

using SteadyClock = std::chrono::steady_clock;

inline uint64_t ElapsedMicros(SteadyClock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          SteadyClock::now() - since)
          .count());
}

// One view's cached stage evaluation, tagged with the
// SelectionState::ViewVersion it was computed at: bit-exact while the
// version matches, recomputed once the view is dirtied.
struct GreedySlot {
  static constexpr uint64_t kNeverEvaluated = ~uint64_t{0};

  uint64_t version = kNeverEvaluated;
  bool valid = false;  // has a positive-benefit candidate
  // While bound_ok, an upper bound on the ratio of every candidate rooted
  // at this view at any later state; it drives both the prune and the
  // beam. Each algorithm's evaluator documents why its bound holds. A pick
  // on the view changes its candidate family and clears bound_ok.
  bool bound_ok = false;
  double bound = 0.0;
  Candidate candidate;
  double benefit = 0.0;
  double space = 0.0;

  double ratio() const { return benefit / space; }
};

// Work of one chunk's per-view evaluations, summed after each parallel
// pass: integer totals, exact at any thread count and whichever chunk
// claimed which view.
struct GreedyWork {
  uint64_t evals = 0;      // candidate evaluations (candidates_evaluated)
  uint64_t cells = 0;      // cost cells read (EvaluationStats::cost_cells)
  uint64_t rechecks = 0;   // EvaluationStats::exact_rechecks
  uint64_t truncated = 0;  // subsets a cap skipped (candidates_truncated)
};

// The trace spans of a run and of each stage, and the context an
// evaluation failure is reported in.
struct GreedyLoopNames {
  const char* run_span;
  const char* stage_span;
  const char* failure_context;
};

// Partitions `views` under the strict total order (bound descending, view
// id ascending): when more than beam_width views are given, the first
// beam_width become the ones a full sort would put first, in no particular
// order, and views[beam_width] becomes the best of the rest — the deferred
// view with the largest bound. A selection, O(n) where a sort is
// O(n log n): the kept set and that boundary view are the sort's, only the
// order inside each part differs. Fewer views are left as they are.
template <typename BoundOf>
void CutBeam(std::vector<uint32_t>& views, size_t beam_width,
             const BoundOf& bound_of) {
  if (views.size() <= beam_width) return;
  std::nth_element(views.begin(),
                   views.begin() + static_cast<std::ptrdiff_t>(beam_width),
                   views.end(), [&](uint32_t a, uint32_t b) {
                     const double ba = bound_of(a);
                     const double bb = bound_of(b);
                     if (ba != bb) return ba > bb;
                     return a < b;
                   });
}

// The run prologue: τ before any pick and the total query frequency, then
// the checkpoint's picks replayed into `state` (see ReplayPicks).
inline Status BeginGreedyRun(const ResumePicks* resume, SelectionState* state,
                             SelectionResult* result) {
  const QueryViewGraph& graph = state->graph();
  result->initial_cost = state->TotalCost();
  for (uint32_t q = 0; q < graph.num_queries(); ++q) {
    result->total_frequency += graph.query_frequency(q);
  }
  if (resume == nullptr) return Status::Ok();
  return ReplayPicks(*resume, state, result);
}

// Ends the run with `status`, an interruption or a failure: `result` is
// not completed. Returns false, for the callers that answer whether the
// run goes on.
inline bool StopRun(Status status, SelectionResult* result) {
  result->status = std::move(status);
  result->completed = false;
  return false;
}

// Whether another stage may start: not once this call has run
// control.max_steps stages (replayed checkpoint stages do not count, so a
// resume with the same max_steps makes progress), nor once a stop is
// requested. Marks `result` interrupted when not.
inline bool GreedyStageAllowed(const RunControl& control,
                               size_t steps_this_call,
                               SelectionResult* result) {
  if (steps_this_call >= control.max_steps) {
    return StopRun(Status::ResourceExhausted("stage budget reached"),
                        result);
  }
  if (control.StopRequested()) {
    return StopRun(control.StopStatus(), result);
  }
  return true;
}

// The run epilogue: wall time since `run_start`, the final space, cost and
// maintenance, and the run's metrics.
inline void EndGreedyRun(const SelectionState& state,
                         SteadyClock::time_point run_start,
                         size_t steps_this_call, SelectionResult* result) {
  result->stats.total_wall_micros = ElapsedMicros(run_start);
  result->space_used = state.SpaceUsed();
  result->final_cost = state.TotalCost();
  result->total_maintenance = state.TotalMaintenance();
  selection_metrics::RecordRun(*result, steps_this_call);
}

// Runs the eager stage loop over `graph` until `space_budget` is used, no
// candidate has positive benefit, or options.control stops it. `Options`
// is RGreedyOptions or InnerGreedyOptions; the loop reads their
// num_threads, memoize, beam_width, control and resume.
//
// evaluate(state, v, &slot, &scratch, &work) recomputes view v's slot
// against `state`. The driver has stamped slot.version, cleared
// slot.valid and set slot.bound_ok; the evaluator sets the candidate, its
// benefit, space and validity and the bound, and clears bound_ok when the
// bound is not certified. Evaluations run concurrently across views: each
// reads only const state and writes only its slot and its chunk's
// `scratch` and `work`, so the claim order changes no result.
template <typename Scratch, typename Options, typename Evaluate>
SelectionResult RunEagerGreedy(const QueryViewGraph& graph,
                               double space_budget, const Options& options,
                               const GreedyLoopNames& names,
                               const Evaluate& evaluate) {
  OLAPIDX_TRACE_SPAN(names.run_span);
  SelectionState state(&graph);
  SelectionResult result;
  Status replayed = BeginGreedyRun(options.resume, &state, &result);
  if (!replayed.ok()) return SelectionResult::Rejected(replayed);

  std::unique_ptr<ThreadPool> private_pool;
  if (options.num_threads != 0) {
    private_pool = std::make_unique<ThreadPool>(options.num_threads);
  }
  ThreadPool& pool = private_pool ? *private_pool : ThreadPool::Shared();
  const size_t chunks = pool.num_threads();
  result.stats.threads_used = chunks;
  result.stats.chunk_busy_micros.assign(chunks, 0);
  result.stats.chunk_cells.assign(chunks, 0);

  const uint32_t num_views = graph.num_views();
  // A view's evaluation reads about positions × (indexes + 1) cost cells.
  // Views are numbered by attribute mask, so the wide, heavy ones sit
  // together at the top of the id range: a pass hands its views out
  // heaviest first, one at a time, so no chunk is left with the tail of
  // heavy views while the others idle. A one-thread pool keeps id order.
  std::vector<uint64_t> weight;
  if (chunks > 1) {
    weight.resize(num_views);
    for (uint32_t v = 0; v < num_views; ++v) {
      weight[v] = graph.ViewQueries(v).size() *
                  (static_cast<uint64_t>(graph.num_indexes(v)) + 1);
    }
  }
  auto heaviest_first = [&](uint32_t a, uint32_t b) {
    if (weight[a] != weight[b]) return weight[a] > weight[b];
    return a < b;
  };
  std::vector<GreedySlot> slots(num_views);
  std::vector<uint32_t> dirty;
  dirty.reserve(num_views);
  std::vector<uint32_t> beamed;    // beam scratch: bounded dirty views
  std::vector<uint32_t> deferred;  // beam-skipped this stage
  std::vector<uint8_t> beam_out(num_views, 0);
  std::vector<GreedyWork> chunk_work(chunks);
  std::vector<Scratch> chunk_scratch(chunks);
  const auto run_start = SteadyClock::now();
  size_t steps_this_call = 0;

  while (state.SpaceUsed() < space_budget &&
         GreedyStageAllowed(options.control, steps_this_call, &result)) {
    const auto stage_start = SteadyClock::now();
    OLAPIDX_TRACE_SPAN(names.stage_span);
    // Candidate evaluations this stage; every loop exit that accounts a
    // stage records wall time and candidate count together so the
    // per-stage vectors stay parallel (RecordRun folds them into the
    // registry histograms in one end-of-run batch).
    uint64_t stage_evals = 0;
    auto end_stage = [&] {
      result.stats.stage_wall_micros.push_back(ElapsedMicros(stage_start));
      result.stats.stage_candidates.push_back(stage_evals);
    };

    // 1. The best clean ratio.
    double prune_ratio = 0.0;
    for (uint32_t v = 0; v < num_views; ++v) {
      if (options.memoize && slots[v].version == state.ViewVersion(v)) {
        ++result.stats.cache_hits;
        if (slots[v].valid && slots[v].ratio() > prune_ratio) {
          prune_ratio = slots[v].ratio();
        }
      }
    }

    // 2. The bound prune.
    dirty.clear();
    for (uint32_t v = 0; v < num_views; ++v) {
      if (options.memoize && slots[v].version == state.ViewVersion(v)) {
        continue;
      }
      const GreedySlot& s = slots[v];
      if (options.memoize && s.bound_ok && s.bound < prune_ratio) {
        ++result.stats.bound_prunes;
        continue;
      }
      dirty.push_back(v);
    }

    // 3. The beam cut.
    deferred.clear();
    double deferred_bound = 0.0;
    if (options.memoize && options.beam_width > 0 &&
        dirty.size() > options.beam_width) {
      beamed.clear();
      for (uint32_t v : dirty) {
        if (slots[v].bound_ok) beamed.push_back(v);
      }
      if (beamed.size() > options.beam_width) {
        CutBeam(beamed, options.beam_width,
                [&](uint32_t v) { return slots[v].bound; });
        deferred.assign(
            beamed.begin() + static_cast<std::ptrdiff_t>(options.beam_width),
            beamed.end());
        deferred_bound = slots[deferred.front()].bound;
        for (uint32_t v : deferred) beam_out[v] = 1;
        dirty.erase(std::remove_if(
                        dirty.begin(), dirty.end(),
                        [&](uint32_t v) { return beam_out[v] != 0; }),
                    dirty.end());
      }
    }

    // 4. Evaluates `list` on the pool; false when the run must stop. A
    // pass crosses the pool's fault points and polls the stop inputs
    // between views; an interrupted view keeps its stale version and is
    // re-evaluated on resume. Each chunk claims the list's next view until
    // none is left.
    std::atomic<bool> stop_requested{false};
    auto evaluate_pass = [&](std::vector<uint32_t>& list) -> bool {
      if (chunks > 1) std::sort(list.begin(), list.end(), heaviest_first);
      std::fill(chunk_work.begin(), chunk_work.end(), GreedyWork{});
      std::atomic<size_t> next{0};
      Status st = pool.TryParallelFor(
          std::min(chunks, list.size()),
          [&](size_t, size_t, size_t chunk) -> Status {
            const auto start = SteadyClock::now();
            // Counted locally: the chunks' slots share cache lines.
            GreedyWork work;
            for (size_t i = next.fetch_add(1, std::memory_order_relaxed);
                 i < list.size();
                 i = next.fetch_add(1, std::memory_order_relaxed)) {
              if (stop_requested.load(std::memory_order_relaxed)) break;
              if (options.control.StopRequested()) {
                stop_requested.store(true, std::memory_order_relaxed);
                break;
              }
              GreedySlot& slot = slots[list[i]];
              slot.version = state.ViewVersion(list[i]);
              slot.valid = false;
              slot.bound_ok = true;
              evaluate(state, list[i], &slot, &chunk_scratch[chunk], &work);
            }
            chunk_work[chunk] = work;
            result.stats.chunk_busy_micros[chunk] += ElapsedMicros(start);
            return Status::Ok();
          });
      for (size_t c = 0; c < chunks; ++c) {
        const GreedyWork& w = chunk_work[c];
        stage_evals += w.evals;
        result.candidates_evaluated += w.evals;
        result.candidates_truncated += w.truncated;
        result.stats.cost_cells += w.cells;
        result.stats.exact_rechecks += w.rechecks;
        result.stats.chunk_cells[c] += w.cells;
      }
      result.stats.cache_misses += list.size();
      if (!st.ok()) {
        return StopRun(st.WithContext(names.failure_context), &result);
      }
      if (stop_requested.load(std::memory_order_relaxed)) {
        return StopRun(options.control.StopStatus(), &result);
      }
      return true;
    };
    // 5. The reduction, and the deferred fallback below.
    auto reduce = [&]() -> const GreedySlot* {
      const GreedySlot* winner = nullptr;
      for (uint32_t v = 0; v < num_views; ++v) {
        if (beam_out[v] != 0) continue;
        const GreedySlot& s = slots[v];
        if (s.valid && (winner == nullptr || s.ratio() > winner->ratio())) {
          winner = &s;
        }
      }
      return winner;
    };

    if (!evaluate_pass(dirty)) {
      end_stage();
      break;
    }
    const GreedySlot* winner = reduce();
    if (winner == nullptr && !deferred.empty()) {
      for (uint32_t v : deferred) beam_out[v] = 0;
      const bool evaluated = evaluate_pass(deferred);
      deferred.clear();
      if (!evaluated) {
        end_stage();
        break;
      }
      winner = reduce();
    }
    if (winner == nullptr) {
      end_stage();
      break;  // Nothing left with positive benefit.
    }
    if (!deferred.empty()) {
      result.beam_skipped += deferred.size();
      result.beam_stage_factor = std::min(
          result.beam_stage_factor,
          winner->ratio() / std::max(winner->ratio(), deferred_bound));
      for (uint32_t v : deferred) beam_out[v] = 0;
    }

    const Candidate c = winner->candidate;  // copy: Apply dirties the slot
    // Per-structure incremental benefits, distributed equally as in the
    // proof of Theorem 5.1, so analyses can replay the a_i sequence.
    const double per_structure =
        winner->benefit / static_cast<double>(c.NumStructures());
    state.Apply(c);
    slots[c.view].bound_ok = false;
    if (c.add_view) {
      result.picks.push_back(StructureRef{c.view, StructureRef::kNoIndex});
      result.pick_benefits.push_back(per_structure);
    }
    for (int32_t k : c.indexes) {
      result.picks.push_back(StructureRef{c.view, k});
      result.pick_benefits.push_back(per_structure);
    }
    ++result.stats.stages;
    ++steps_this_call;
    end_stage();
  }

  EndGreedyRun(state, run_start, steps_this_call, &result);
  return result;
}

}  // namespace olapidx

#endif  // OLAPIDX_CORE_GREEDY_DRIVER_H_
