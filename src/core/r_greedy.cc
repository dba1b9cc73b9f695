#include "core/r_greedy.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <queue>
#include <utility>

#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/beam_cut.h"
#include "core/selection_metrics.h"
#include "core/selection_state.h"

namespace olapidx {

namespace {

using SteadyClock = std::chrono::steady_clock;

uint64_t ElapsedMicros(SteadyClock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          SteadyClock::now() - since)
          .count());
}

// One view's cached stage evaluation: the best candidate rooted at the
// view under the determinism contract of r_greedy.h, tagged with the
// SelectionState::ViewVersion it was computed at. While the version
// matches the slot is bit-exact; once the view is dirtied it is
// recomputed before the next reduction.
struct ViewSlot {
  static constexpr uint64_t kNeverEvaluated = ~uint64_t{0};

  uint64_t version = kNeverEvaluated;
  bool valid = false;  // has a positive-benefit candidate
  // True when the slot's ratio is a certified upper bound on every
  // candidate of this view at any later state (CELF generalized beyond
  // r = 1): benefits are monotone non-increasing, and every un-enumerated
  // subset reduces to an enumerated one with at least its ratio. False
  // when the enumeration was truncated by max_subsets_per_view or the
  // view's own selection set changed since the evaluation (a selected
  // view's indexes are a different candidate family with smaller spaces).
  bool bound_ok = false;
  double ratio = 0.0;
  double benefit = 0.0;
  Candidate cand;
};

// Per-chunk work counters, merged after each ParallelFor so totals are
// independent of thread count and schedule.
struct ChunkCounters {
  uint64_t evals = 0;
  uint64_t truncated = 0;
};

// Enumerates subsets of `pool` of size 2..max_size (size-1 subsets are
// evaluated separately by the caller), in lexicographic order, invoking
// `fn(subset)` for each, up to `cap` subsets in total. Returns the number
// of subsets emitted.
template <typename Fn>
size_t EnumerateSubsets(const std::vector<int32_t>& pool, int max_size,
                        size_t cap, Fn&& fn) {
  std::vector<int32_t> subset;
  size_t emitted = 0;
  auto rec = [&](auto&& self, size_t start) -> void {
    if (emitted >= cap) return;
    if (static_cast<int>(subset.size()) >= 2) {
      ++emitted;
      fn(subset);
      if (emitted >= cap) return;
    }
    if (static_cast<int>(subset.size()) == max_size) return;
    for (size_t i = start; i < pool.size(); ++i) {
      subset.push_back(pool[i]);
      self(self, i + 1);
      subset.pop_back();
      if (emitted >= cap) return;
    }
  };
  rec(rec, 0);
  return emitted;
}

// Σ_{s=2}^{max_size} C(n, s), saturating at UINT64_MAX — how many subsets
// an uncapped enumeration would visit.
uint64_t TotalSubsetCount(size_t n, int max_size) {
  uint64_t total = 0;
  for (int s = 2; s <= max_size && static_cast<size_t>(s) <= n; ++s) {
    uint64_t c = 1;
    for (uint64_t i = 1; i <= static_cast<uint64_t>(s); ++i) {
      uint64_t num = static_cast<uint64_t>(n) - static_cast<uint64_t>(s) + i;
      if (c > ~uint64_t{0} / num) return ~uint64_t{0};
      c = c * num / i;  // exact: the running product is C(n-s+i, i) * i!/i!
    }
    if (total > ~uint64_t{0} - c) return ~uint64_t{0};
    total += c;
  }
  return total;
}

// Recomputes `slot` for view v against the current state: the best
// candidate rooted at v, with ties broken by enumeration rank (strict >
// keeps the earliest). Runs concurrently across views — reads only const
// state, writes only its own slot and counters.
void EvaluateView(const SelectionState& state, uint32_t v,
                  const RGreedyOptions& options, ViewSlot* slot,
                  ChunkCounters* counters) {
  const QueryViewGraph& graph = state.graph();
  slot->version = state.ViewVersion(v);
  slot->valid = false;
  slot->bound_ok = true;
  slot->ratio = 0.0;
  slot->benefit = 0.0;

  auto consider = [&](const Candidate& c, double benefit) {
    if (benefit <= 0.0) return;
    double ratio = benefit / state.CandidateSpace(c);
    if (!slot->valid || ratio > slot->ratio) {
      slot->valid = true;
      slot->ratio = ratio;
      slot->benefit = benefit;
      slot->cand = c;
    }
  };

  if (!state.ViewSelected(v)) {
    // (a) The view plus at most r-1 of its indexes.
    Candidate view_only{v, /*add_view=*/true, {}};
    double view_benefit = state.CandidateBenefit(view_only);
    ++counters->evals;
    consider(view_only, view_benefit);
    if (options.r < 2) return;

    // Indexes worth pairing with the view: those that improve at least
    // one query beyond the plain view scan. An index that adds nothing
    // next to the view alone can never add anything inside a larger
    // candidate (a set's offered cost is the min over its members).
    std::vector<int32_t> useful;
    for (int32_t k = 0; k < graph.num_indexes(v); ++k) {
      Candidate with_index{v, /*add_view=*/true, {k}};
      double b = state.CandidateBenefit(with_index);
      ++counters->evals;
      consider(with_index, b);
      if (b > view_benefit) useful.push_back(k);
    }
    if (options.r >= 3 && useful.size() >= 2) {
      size_t emitted = EnumerateSubsets(
          useful, options.r - 1, options.max_subsets_per_view,
          [&](const std::vector<int32_t>& subset) {
            Candidate c{v, /*add_view=*/true, subset};
            double b = state.CandidateBenefit(c);
            ++counters->evals;
            consider(c, b);
          });
      if (emitted == options.max_subsets_per_view) {
        uint64_t total = TotalSubsetCount(useful.size(), options.r - 1);
        if (total > emitted) {
          counters->truncated += total - emitted;
          // Un-enumerated subsets beyond the cap are not covered by the
          // slot's ratio, so it is not a certified bound.
          slot->bound_ok = false;
        }
      }
    }
  } else {
    // (b) A single not-yet-selected index of the already-selected view.
    for (int32_t k = 0; k < graph.num_indexes(v); ++k) {
      if (state.IndexSelected(v, k)) continue;
      Candidate c{v, /*add_view=*/false, {k}};
      double b = state.CandidateBenefit(c);
      ++counters->evals;
      consider(c, b);
    }
  }
}

// The eager (r ≥ 1) path: per stage, recompute only the views dirtied
// since their last evaluation — in parallel — then reduce all view slots
// deterministically (ascending view id, strictly-greater ratio wins).
SelectionResult EagerRGreedy(const QueryViewGraph& graph,
                             double space_budget,
                             const RGreedyOptions& options) {
  OLAPIDX_TRACE_SPAN("rgreedy.run");
  SelectionState state(&graph);
  SelectionResult result;
  result.initial_cost = state.TotalCost();
  for (uint32_t q = 0; q < graph.num_queries(); ++q) {
    result.total_frequency += graph.query_frequency(q);
  }
  if (options.resume != nullptr) {
    Status replayed = ReplayPicks(*options.resume, &state, &result);
    if (!replayed.ok()) return SelectionResult::Rejected(replayed);
  }

  std::unique_ptr<ThreadPool> private_pool;
  if (options.num_threads != 0) {
    private_pool = std::make_unique<ThreadPool>(options.num_threads);
  }
  ThreadPool& pool = private_pool ? *private_pool : ThreadPool::Shared();
  const size_t chunks = pool.num_threads();
  result.stats.threads_used = chunks;

  const uint32_t num_views = graph.num_views();
  std::vector<ViewSlot> slots(num_views);
  std::vector<uint32_t> dirty;
  dirty.reserve(num_views);
  std::vector<uint32_t> beamed;    // beam scratch: bounded dirty views
  std::vector<uint32_t> deferred;  // beam-skipped this stage
  std::vector<uint8_t> beam_out(num_views, 0);
  std::vector<ChunkCounters> counters(chunks);
  const auto run_start = SteadyClock::now();
  // Stages executed by *this call*; replayed checkpoint stages don't count
  // against the budget (so resume with the same max_steps makes progress).
  size_t steps_this_call = 0;

  while (state.SpaceUsed() < space_budget) {
    if (steps_this_call >= options.control.max_steps) {
      result.status = Status::ResourceExhausted("stage budget reached");
      result.completed = false;
      break;
    }
    if (options.control.StopRequested()) {
      result.status = options.control.StopStatus();
      result.completed = false;
      break;
    }
    const auto stage_start = SteadyClock::now();
    OLAPIDX_TRACE_SPAN("rgreedy.stage");
    // Candidate evaluations this stage; every loop exit that accounts a
    // stage records wall time and candidate count together so the
    // per-stage vectors stay parallel (RecordRun folds them into the
    // registry histograms in one end-of-run batch).
    uint64_t stage_evals = 0;
    auto end_stage = [&] {
      uint64_t micros = ElapsedMicros(stage_start);
      result.stats.stage_wall_micros.push_back(micros);
      result.stats.stage_candidates.push_back(stage_evals);
    };

    // Pass 1: clean slots are exact; the best clean ratio becomes the
    // lazy-skip threshold for the dirty ones.
    double prune_ratio = 0.0;
    for (uint32_t v = 0; v < num_views; ++v) {
      if (options.memoize && slots[v].version == state.ViewVersion(v)) {
        ++result.stats.cache_hits;
        if (slots[v].valid && slots[v].ratio > prune_ratio) {
          prune_ratio = slots[v].ratio;
        }
      }
    }

    // Pass 2: a dirty view whose certified stale upper bound cannot reach
    // the best clean ratio cannot win this stage, so its re-evaluation is
    // skipped (the slot stays stale and its bound stays valid — benefits
    // are monotone non-increasing). A stale slot with no positive
    // candidate can never regain one while its candidate family is
    // unchanged, so it is skipped regardless of the threshold.
    dirty.clear();
    for (uint32_t v = 0; v < num_views; ++v) {
      if (options.memoize && slots[v].version == state.ViewVersion(v)) {
        continue;
      }
      const ViewSlot& s = slots[v];
      if (options.memoize && s.bound_ok &&
          (!s.valid || s.ratio < prune_ratio)) {
        ++result.stats.bound_prunes;
        continue;
      }
      dirty.push_back(v);
    }

    // Beam cap: of the dirty views with a certified stale bound, only the
    // beam_width with the largest bounds are re-evaluated; the rest are
    // deferred. A deferred slot must not enter the reduction — its stale
    // ratio is an *over*estimate — so it is masked out and accounted in
    // the a-posteriori guarantee instead. Views with no certified bound
    // (first touch, post-pick family change, truncated enumeration) are
    // always evaluated.
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
                [&](uint32_t v) { return slots[v].ratio; });
        deferred.assign(
            beamed.begin() + static_cast<std::ptrdiff_t>(options.beam_width),
            beamed.end());
        deferred_bound = slots[deferred.front()].ratio;
        for (uint32_t v : deferred) beam_out[v] = 1;
        dirty.erase(std::remove_if(
                        dirty.begin(), dirty.end(),
                        [&](uint32_t v) { return beam_out[v] != 0; }),
                    dirty.end());
      }
    }
    result.stats.cache_misses += dirty.size();

    // Evaluation crosses the pool's fault points and polls the stop inputs
    // between per-view evaluations. A view interrupted mid-evaluation keeps
    // kNeverEvaluated / its stale version, so a later resume re-evaluates
    // it — interruption never corrupts the memoization invariant.
    std::atomic<bool> stop_requested{false};
    auto evaluate_list = [&](const std::vector<uint32_t>& list) -> Status {
      std::fill(counters.begin(), counters.end(), ChunkCounters{});
      Status st = pool.TryParallelFor(
          list.size(), [&](size_t begin, size_t end, size_t chunk) -> Status {
            for (size_t i = begin; i < end; ++i) {
              if (stop_requested.load(std::memory_order_relaxed)) break;
              if (options.control.StopRequested()) {
                stop_requested.store(true, std::memory_order_relaxed);
                break;
              }
              EvaluateView(state, list[i], options, &slots[list[i]],
                           &counters[chunk]);
            }
            return Status::Ok();
          });
      for (const ChunkCounters& c : counters) {
        stage_evals += c.evals;
        result.candidates_truncated += c.truncated;
      }
      return st;
    };
    Status evaluated = evaluate_list(dirty);
    result.candidates_evaluated += stage_evals;
    if (!evaluated.ok()) {
      result.status = evaluated.WithContext("candidate evaluation");
      result.completed = false;
      end_stage();
      break;
    }
    if (stop_requested.load(std::memory_order_relaxed)) {
      result.status = options.control.StopStatus();
      result.completed = false;
      end_stage();
      break;
    }

    // Deterministic reduction over all views (cached and recomputed
    // alike): ascending view id with strictly-greater ratio implements
    // the documented candidate order. Slots skipped by the bound prune
    // are harmless here: their stale ratio is strictly below the best
    // clean ratio, which itself participates, so they can never win.
    // Beam-deferred slots are masked out.
    const ViewSlot* best = nullptr;
    auto reduce = [&] {
      best = nullptr;
      for (uint32_t v = 0; v < num_views; ++v) {
        if (beam_out[v] != 0) continue;
        const ViewSlot& s = slots[v];
        if (s.valid && (best == nullptr || s.ratio > best->ratio)) {
          best = &s;
        }
      }
    };
    reduce();
    if (best == nullptr && !deferred.empty()) {
      // The beam hid every remaining positive candidate: evaluate the
      // deferred set after all, so a beam run never stops before the
      // exact one would.
      for (uint32_t v : deferred) beam_out[v] = 0;
      const uint64_t evals_before = stage_evals;
      Status fallback = evaluate_list(deferred);
      result.stats.cache_misses += deferred.size();
      result.candidates_evaluated += stage_evals - evals_before;
      deferred.clear();
      if (!fallback.ok()) {
        result.status = fallback.WithContext("candidate evaluation");
        result.completed = false;
        end_stage();
        break;
      }
      if (stop_requested.load(std::memory_order_relaxed)) {
        result.status = options.control.StopStatus();
        result.completed = false;
        end_stage();
        break;
      }
      reduce();
    }
    if (best == nullptr) {
      end_stage();
      break;  // Nothing left with positive benefit.
    }
    if (!deferred.empty()) {
      result.beam_skipped += deferred.size();
      result.beam_stage_factor =
          std::min(result.beam_stage_factor,
                   best->ratio / std::max(best->ratio, deferred_bound));
      for (uint32_t v : deferred) beam_out[v] = 0;
    }

    const Candidate c = best->cand;  // copy: Apply dirties the slot
    double stage_benefit = best->benefit;
    // Record per-structure incremental benefits (distributed equally, as
    // in the proof of Theorem 5.1) so analyses can replay the a_i
    // sequence.
    double per_structure =
        stage_benefit / static_cast<double>(c.NumStructures());
    state.Apply(c);
    // The picked view's candidate family changed (view-only/subset
    // candidates give way to single-index ones with smaller spaces), so
    // its stale ratio no longer bounds anything: force re-evaluation.
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

  result.stats.total_wall_micros = ElapsedMicros(run_start);
  result.space_used = state.SpaceUsed();
  result.final_cost = state.TotalCost();
  result.total_maintenance = state.TotalMaintenance();
  selection_metrics::RecordRun(result, steps_this_call);
  return result;
}

// CELF-style lazy 1-greedy: a max-heap of candidates keyed by their last
// computed benefit-per-space; submodularity makes stale keys upper bounds.
SelectionResult LazyOneGreedy(const QueryViewGraph& graph,
                              double space_budget,
                              const RGreedyOptions& options) {
  OLAPIDX_TRACE_SPAN("rgreedy.lazy_run");
  SelectionState state(&graph);
  SelectionResult result;
  result.initial_cost = state.TotalCost();
  for (uint32_t q = 0; q < graph.num_queries(); ++q) {
    result.total_frequency += graph.query_frequency(q);
  }
  if (options.resume != nullptr) {
    Status replayed = ReplayPicks(*options.resume, &state, &result);
    if (!replayed.ok()) return SelectionResult::Rejected(replayed);
  }
  const auto run_start = SteadyClock::now();

  struct Entry {
    double ratio;
    double benefit;
    StructureRef ref;
  };
  // Max-heap by ratio; ties broken by structure id for determinism.
  auto cmp = [](const Entry& a, const Entry& b) {
    if (a.ratio != b.ratio) return a.ratio < b.ratio;
    if (a.ref.view != b.ref.view) return a.ref.view > b.ref.view;
    return a.ref.index > b.ref.index;
  };
  std::priority_queue<Entry, std::vector<Entry>, decltype(cmp)> heap(cmp);

  auto push_fresh = [&](StructureRef ref) {
    double b = state.StructureBenefit(ref);
    ++result.candidates_evaluated;
    if (b <= 0.0 && !ref.is_view()) return;  // an index never regains value
    // Zero-benefit views stay out too: with r = 1 a view is only ever
    // selected for its own benefit (this is 1-greedy's known blind spot).
    if (b <= 0.0) return;
    heap.push(Entry{b / graph.structure_space(ref), b, ref});
  };

  // Seed the heap from the (possibly replayed) state: unselected views as
  // view candidates, selected views through their unselected indexes —
  // exactly the frontier an uninterrupted run would have open here.
  for (uint32_t v = 0; v < graph.num_views(); ++v) {
    if (!state.ViewSelected(v)) {
      push_fresh(StructureRef{v, StructureRef::kNoIndex});
      continue;
    }
    for (int32_t k = 0; k < graph.num_indexes(v); ++k) {
      if (!state.IndexSelected(v, k)) push_fresh(StructureRef{v, k});
    }
  }

  size_t steps_this_call = 0;
  while (state.SpaceUsed() < space_budget && !heap.empty()) {
    if (steps_this_call >= options.control.max_steps) {
      result.status = Status::ResourceExhausted("stage budget reached");
      result.completed = false;
      break;
    }
    if (options.control.StopRequested()) {
      result.status = options.control.StopStatus();
      result.completed = false;
      break;
    }
    Entry top = heap.top();
    heap.pop();
    if (state.Selected(top.ref)) continue;
    double b = state.StructureBenefit(top.ref);
    ++result.candidates_evaluated;
    if (b <= 0.0) continue;  // stale and now worthless; drop
    double ratio = b / graph.structure_space(top.ref);
    // Select only if still at least as good as the best cached bound.
    if (!heap.empty() && ratio < heap.top().ratio) {
      heap.push(Entry{ratio, b, top.ref});
      continue;
    }
    state.ApplyStructure(top.ref);
    result.picks.push_back(top.ref);
    result.pick_benefits.push_back(b);
    ++result.stats.stages;
    ++steps_this_call;
    if (top.ref.is_view()) {
      for (int32_t k = 0; k < graph.num_indexes(top.ref.view); ++k) {
        push_fresh(StructureRef{top.ref.view, k});
      }
    }
  }

  // The heap *is* the cache here: every evaluation is counted as a miss,
  // and the per-view memoization counters stay 0.
  result.stats.cache_misses = result.candidates_evaluated;
  result.stats.total_wall_micros = ElapsedMicros(run_start);
  result.space_used = state.SpaceUsed();
  result.final_cost = state.TotalCost();
  result.total_maintenance = state.TotalMaintenance();
  selection_metrics::RecordRun(result, steps_this_call);
  return result;
}

}  // namespace

SelectionResult RGreedy(const QueryViewGraph& graph, double space_budget,
                        const RGreedyOptions& options) {
  // Boundary-reachable misuse (CLI flags, checkpoint files) is rejected,
  // not aborted on; OLAPIDX_CHECK below here guards internal invariants
  // only.
  if (!graph.finalized()) {
    return SelectionResult::Rejected(
        Status::FailedPrecondition("query-view graph is not finalized"));
  }
  if (options.r < 1) {
    return SelectionResult::Rejected(Status::InvalidArgument(
        "r must be >= 1, got " + std::to_string(options.r)));
  }
  if (!std::isfinite(space_budget) || space_budget < 0.0) {
    return SelectionResult::Rejected(Status::InvalidArgument(
        "space budget must be non-negative and finite"));
  }
  // Per-run registry delta, captured fresh for every call so repeated
  // runs against the same options/state object never accumulate.
  MetricsRunScope scope;
  SelectionResult result =
      options.r == 1 && options.lazy_one_greedy
          ? LazyOneGreedy(graph, space_budget, options)
          : EagerRGreedy(graph, space_budget, options);
  result.metrics = scope.Delta();
  return result;
}

}  // namespace olapidx
