#include "core/inner_greedy.h"

#include <algorithm>
#include <cmath>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>

#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/column_pricer.h"
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

// One view's cached stage evaluation: for an unselected view the
// ratio-maximal prefix of its greedy index growth, for a selected view
// its best single unselected index. Tagged with the ViewVersion it was
// computed at (bit-exact while the version matches).
struct ViewSlot {
  static constexpr uint64_t kNeverEvaluated = ~uint64_t{0};

  uint64_t version = kNeverEvaluated;
  bool valid = false;  // has a positive-benefit candidate
  // Certified upper bound on the ratio of ANY candidate rooted at this
  // view at any later state, valid while bound_ok. The grown bundle's own
  // ratio is not such a bound (re-growth can take a different order), but
  //   max(view ratio, max_k marginal_k(view alone) / space_k)
  // is: benefit(bundle) <= benefit(view) + sum of first-step marginals
  // (submodularity), each term is monotone non-increasing in M, and a
  // ratio of sums is at most the max of the per-term ratios (mediant
  // inequality). For a selected view the candidates are fixed single
  // indexes and the best ratio itself is the bound.
  double bound = 0.0;
  bool bound_ok = false;
  Candidate candidate;
  double benefit = 0.0;
  double space = 0.0;

  double ratio() const { return benefit / space; }
};

// Work of one chunk's per-view evaluations, summed in chunk order after
// each parallel pass, so the totals are exact at any thread count.
struct WorkCounts {
  uint64_t evals = 0;     // candidate evaluations (candidates_evaluated)
  uint64_t cells = 0;     // cost cells read: (index, position) pairs on
                          // the per-position path, (index, group) pairs
                          // on the column path
  uint64_t rechecks = 0;  // column prices re-run on the per-position loop
};

// One candidate's increment: exact (lo == hi == the per-position value),
// or a column price known only to lie in [lo, hi].
struct Priced {
  double lo = 0.0;
  double hi = 0.0;
  bool exact = false;
};

// Per-thread buffers of the per-view evaluations, reused across views and
// stages so an evaluation allocates nothing per view.
struct ViewScratch {
  // Bundle growth.
  std::vector<double> offered;
  std::vector<int32_t> remaining;
  std::vector<int32_t> order;
  // Single indexes on a selected view.
  Candidate single;
  std::vector<int32_t> candidates;
  // Both: the column pricer, and the prices of `remaining` or of
  // `candidates`.
  ColumnPricer pricer;
  std::vector<Priced> priced;
};

// Index k's increment with respect to M ∪ IG, where offered[pos] is the
// cheapest cost IG offers queries[pos]: the per-position loop, and the
// reference every column price is checked against.
double PositionIncrement(const QueryViewGraph& graph,
                         const SelectionState& state, uint32_t v, int32_t k,
                         const std::vector<double>& offered) {
  const std::vector<uint32_t>& queries = graph.ViewQueries(v);
  double inc = 0.0;
  for (size_t pos = 0; pos < queries.size(); ++pos) {
    double c = graph.IndexCostAt(v, k, pos);
    if (c >= offered[pos]) continue;
    double cur = state.QueryBestCost(queries[pos]);
    double old_red = std::max(0.0, cur - offered[pos]);
    double new_red = std::max(0.0, cur - c);
    inc += graph.query_frequency(queries[pos]) * (new_red - old_red);
  }
  inc -= graph.structure_maintenance(StructureRef{v, k});
  return inc;
}

Priced Exact(double value) { return Priced{value, value, true}; }

// Brackets a column price: [lo, hi] holds the per-position value (the
// bound's slack absorbs the rounding of value ± err; DESIGN.md §4).
Priced Bracket(const ColumnPrice& p) {
  return Priced{p.value - p.err, p.value + p.err, false};
}

// Re-runs `recheck` on every inexact entry of `priced` (over the indexes
// `keys`, parallel to it) whose upper bound reaches the best lower bound,
// in the domain `scale` maps an increment and its index into (identity, or
// per unit space). After it, an entry that can attain the maximum is
// exact; every other one is strictly below it.
template <typename Scale, typename Recheck>
void RecheckNearMax(const std::vector<int32_t>& keys,
                    std::vector<Priced>& priced, double floor,
                    const Scale& scale, const Recheck& recheck) {
  double best_lo = floor;
  for (size_t i = 0; i < priced.size(); ++i) {
    best_lo = std::max(best_lo, scale(priced[i].lo, keys[i]));
  }
  for (size_t i = 0; i < priced.size(); ++i) {
    Priced& p = priced[i];
    if (!p.exact && !(scale(p.hi, keys[i]) < best_lo)) {
      p = Exact(recheck(keys[i]));
    }
  }
}

// Grows IG = {view v} U indexes greedily (largest incremental benefit
// first) while S(IG) < budget, and stores the prefix with maximal benefit
// per unit space with respect to the current state into `slot`.
//
// On the column path (ColumnPricer::Load accepted v) each growth step
// prices the remaining indexes by column and re-runs the per-position
// loop on every bracket that leaves a decision open: one straddling zero
// (keep or drop), one that may hold the step's best increment, and in the
// first step one that may set the certified bound. Every decision and
// value therefore equals the per-position path's.
void GrowBundle(const QueryViewGraph& graph, const SelectionState& state,
                uint32_t v, double space_budget, ViewSlot* slot,
                ViewScratch* scratch, WorkCounts* work) {
  const std::vector<uint32_t>& queries = graph.ViewQueries(v);
  const size_t nq = queries.size();

  // offered[pos]: cheapest cost IG currently offers for queries[pos].
  std::vector<double>& offered = scratch->offered;
  offered.resize(nq);
  double benefit = 0.0;
  for (size_t pos = 0; pos < nq; ++pos) {
    offered[pos] = graph.ViewCostAt(v, pos);
    double cur = state.QueryBestCost(queries[pos]);
    if (offered[pos] < cur) {
      benefit += graph.query_frequency(queries[pos]) * (cur - offered[pos]);
    }
  }
  benefit -= graph.structure_maintenance(
      StructureRef{v, StructureRef::kNoIndex});
  ++work->evals;

  double space = graph.view_space(v);
  std::vector<int32_t>& order = scratch->order;  // growth order
  order.clear();

  slot->candidate.view = v;
  slot->candidate.add_view = true;
  slot->candidate.indexes.clear();
  slot->benefit = benefit;
  slot->space = space;
  slot->bound = benefit / space;

  std::vector<int32_t>& remaining = scratch->remaining;
  remaining.clear();
  for (int32_t k = 0; k < graph.num_indexes(v); ++k) remaining.push_back(k);

  ColumnPricer& pricer = scratch->pricer;
  const bool by_column =
      space < space_budget && pricer.Load(graph, state, v);
  if (by_column) pricer.OfferViewCost();
  auto exact_increment = [&](int32_t k) {
    ++work->rechecks;
    work->cells += nq;
    return PositionIncrement(graph, state, v, k, offered);
  };
  auto per_space = [&](double inc, int32_t k) {
    return inc / graph.index_space(v, k);
  };

  std::vector<Priced>& priced = scratch->priced;
  bool first_growth_step = true;
  while (space < space_budget && !remaining.empty()) {
    // Find the index with the largest incremental benefit w.r.t. M ∪ IG.
    double best_inc = 0.0;
    size_t best_at = 0;
    bool found = false;
    priced.clear();
    for (size_t i = 0; i < remaining.size();) {
      int32_t k = remaining[i];
      double inc;
      if (by_column) {
        Priced p = Bracket(pricer.Price(
            k, graph.structure_maintenance(StructureRef{v, k})));
        work->cells += pricer.num_groups();
        // A bracket straddling zero cannot say whether k stays; any other
        // lies wholly above zero or at most at zero, like its top.
        if (p.lo <= 0.0 && p.hi > 0.0) p = Exact(exact_increment(k));
        inc = p.hi;
        if (inc > 0.0) priced.push_back(p);
      } else {
        inc = PositionIncrement(graph, state, v, k, offered);
        work->cells += nq;
        if (first_growth_step && inc > 0.0) {
          // First-step marginals (w.r.t. the view alone) feed the
          // certified ratio bound documented on ViewSlot.
          slot->bound = std::max(slot->bound, per_space(inc, k));
        }
      }
      ++work->evals;
      if (inc <= 0.0) {
        // Offered costs only decrease as IG grows, so a zero-increment
        // index stays at zero for the rest of this growth: drop it.
        // (best_at always refers to a position < i, so the swap from the
        // back cannot invalidate it.)
        remaining[i] = remaining.back();
        remaining.pop_back();
        continue;
      }
      if (!by_column && (!found || inc > best_inc)) {
        best_inc = inc;
        best_at = i;
        found = true;
      }
      ++i;
    }
    if (by_column) {
      // `priced` runs parallel to `remaining`, in the per-position path's
      // scan order, so its first exact maximum is that path's pick; every
      // bracket left inexact lies strictly below it.
      RecheckNearMax(
          remaining, priced, 0.0, [](double inc, int32_t) { return inc; },
          exact_increment);
      if (first_growth_step) {
        RecheckNearMax(remaining, priced, slot->bound, per_space,
                       exact_increment);
      }
      for (size_t i = 0; i < priced.size(); ++i) {
        const Priced& p = priced[i];
        if (!p.exact) continue;
        if (first_growth_step) {
          slot->bound = std::max(slot->bound, per_space(p.lo, remaining[i]));
        }
        if (!found || p.lo > best_inc) {
          best_inc = p.lo;
          best_at = i;
          found = true;
        }
      }
    }
    first_growth_step = false;
    if (!found) break;
    int32_t k = remaining[best_at];
    remaining[best_at] = remaining.back();
    remaining.pop_back();

    for (size_t pos = 0; pos < nq; ++pos) {
      offered[pos] = std::min(offered[pos], graph.IndexCostAt(v, k, pos));
    }
    if (by_column) pricer.OfferIndex(k);
    benefit += best_inc;
    space += graph.index_space(v, k);
    order.push_back(k);

    if (benefit / space > slot->ratio()) {
      slot->candidate.indexes = order;
      slot->benefit = benefit;
      slot->space = space;
    }
  }
}

// The best single unselected index of selected view v into `slot`, the
// lowest position winning ratio ties. On the column path the indexes are
// priced by column, and every bracket that may hold the best positive
// ratio gets the per-position benefit.
void BestSingleIndex(const SelectionState& state, uint32_t v, ViewSlot* slot,
                     ViewScratch* scratch, WorkCounts* work) {
  const QueryViewGraph& graph = state.graph();
  const uint64_t nq = graph.ViewQueries(v).size();
  Candidate& c = scratch->single;
  c.view = v;
  c.add_view = false;
  c.indexes.assign(1, 0);
  auto exact_benefit = [&](int32_t k) {
    c.indexes[0] = k;
    work->cells += nq;
    return state.CandidateBenefit(c);
  };
  auto per_space = [&](double b, int32_t k) {
    return b / graph.index_space(v, k);
  };
  auto consider = [&](int32_t k, double b) {
    if (!slot->valid || per_space(b, k) > slot->ratio()) {
      slot->candidate.view = v;
      slot->candidate.add_view = false;
      slot->candidate.indexes.assign(1, k);
      slot->benefit = b;
      slot->space = graph.index_space(v, k);
      slot->valid = true;
    }
  };

  ColumnPricer& pricer = scratch->pricer;
  if (!pricer.Load(graph, state, v)) {
    for (int32_t k = 0; k < graph.num_indexes(v); ++k) {
      if (state.IndexSelected(v, k)) continue;
      double b = exact_benefit(k);
      ++work->evals;
      if (b <= 0.0) continue;
      consider(k, b);
    }
    return;
  }
  pricer.OfferNothing();
  std::vector<int32_t>& candidates = scratch->candidates;
  std::vector<Priced>& priced = scratch->priced;
  candidates.clear();
  priced.clear();
  for (int32_t k = 0; k < graph.num_indexes(v); ++k) {
    if (state.IndexSelected(v, k)) continue;
    const Priced p = Bracket(pricer.Price(
        k, graph.structure_maintenance(StructureRef{v, k})));
    work->cells += pricer.num_groups();
    ++work->evals;
    if (p.hi <= 0.0) continue;
    candidates.push_back(k);
    priced.push_back(p);
  }
  // With the floor at 0, a bracket straddling zero is re-checked unless a
  // certainly positive ratio lies above it.
  RecheckNearMax(candidates, priced, 0.0, per_space, [&](int32_t k) {
    ++work->rechecks;
    return exact_benefit(k);
  });
  for (size_t i = 0; i < priced.size(); ++i) {
    if (priced[i].exact && priced[i].lo > 0.0) {
      consider(candidates[i], priced[i].lo);
    }
  }
}

// Recomputes `slot` for view v: a grown bundle when v is unselected, the
// best single unselected index when v is selected. Runs concurrently
// across views — reads only const state, writes only its own slot and its
// chunk's scratch.
void EvaluateView(const SelectionState& state, uint32_t v,
                  double space_budget, ViewSlot* slot, ViewScratch* scratch,
                  WorkCounts* work) {
  const QueryViewGraph& graph = state.graph();
  slot->version = state.ViewVersion(v);
  slot->valid = false;
  slot->bound_ok = true;
  if (!state.ViewSelected(v)) {
    GrowBundle(graph, state, v, space_budget, slot, scratch, work);
    slot->valid = slot->benefit > 0.0;
    return;
  }
  slot->bound = 0.0;
  BestSingleIndex(state, v, slot, scratch, work);
  // Fixed candidate family: the best single-index ratio bounds every
  // later re-evaluation (benefits are monotone non-increasing).
  if (slot->valid) slot->bound = slot->ratio();
}

}  // namespace

SelectionResult InnerLevelGreedy(const QueryViewGraph& graph,
                                 double space_budget,
                                 const InnerGreedyOptions& options) {
  // Boundary-reachable misuse is rejected, not aborted on.
  if (!graph.finalized()) {
    return SelectionResult::Rejected(
        Status::FailedPrecondition("query-view graph is not finalized"));
  }
  if (!std::isfinite(space_budget) || space_budget < 0.0) {
    return SelectionResult::Rejected(Status::InvalidArgument(
        "space budget must be non-negative and finite"));
  }

  OLAPIDX_TRACE_SPAN("inner_greedy.run");
  // Per-run registry delta (see SelectionResult::metrics): captured fresh
  // for every call so repeated runs never accumulate.
  MetricsRunScope metrics_scope;
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
  std::vector<WorkCounts> chunk_work(chunks);
  std::vector<ViewScratch> chunk_scratch(chunks);
  const auto run_start = SteadyClock::now();
  // Stages executed by *this call*; replayed checkpoint stages don't
  // count against the budget.
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
    OLAPIDX_TRACE_SPAN("inner_greedy.stage");
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
        if (slots[v].valid && slots[v].ratio() > prune_ratio) {
          prune_ratio = slots[v].ratio();
        }
      }
    }

    // Pass 2: a dirty view whose certified stale bound (see ViewSlot)
    // cannot reach the best clean ratio cannot win this stage; skip its
    // regrowth. The slot stays stale and its bound stays valid, since
    // every bound term is monotone non-increasing in M.
    dirty.clear();
    for (uint32_t v = 0; v < num_views; ++v) {
      if (options.memoize && slots[v].version == state.ViewVersion(v)) {
        continue;
      }
      const ViewSlot& s = slots[v];
      if (options.memoize && s.bound_ok && s.bound < prune_ratio) {
        ++result.stats.bound_prunes;
        continue;
      }
      dirty.push_back(v);
    }

    // Beam cap: of the dirty views with a certified stale bound, only the
    // beam_width with the largest bounds are re-grown; the rest are
    // deferred. A deferred slot must not enter the reduction — its stale
    // ratio is an *over*estimate — so it is masked out and accounted in
    // the a-posteriori guarantee instead. Views with no certified bound
    // (first touch, post-pick family change) are always evaluated.
    deferred.clear();
    double deferred_bound = 0.0;
    if (options.memoize && options.beam_width > 0 &&
        dirty.size() > options.beam_width) {
      beamed.clear();
      for (uint32_t v : dirty) {
        if (slots[v].bound_ok) beamed.push_back(v);
      }
      if (beamed.size() > options.beam_width) {
        std::sort(beamed.begin(), beamed.end(),
                  [&](uint32_t a, uint32_t b) {
                    if (slots[a].bound != slots[b].bound) {
                      return slots[a].bound > slots[b].bound;
                    }
                    return a < b;
                  });
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
    result.stats.cache_misses += dirty.size();

    // Evaluation crosses the pool's fault points and polls the stop
    // inputs between per-view evaluations; an interrupted view keeps its
    // stale version and is re-evaluated on resume.
    std::atomic<bool> stop_requested{false};
    auto evaluate_list = [&](const std::vector<uint32_t>& list) -> Status {
      std::fill(chunk_work.begin(), chunk_work.end(), WorkCounts{});
      Status st = pool.TryParallelFor(
          list.size(), [&](size_t begin, size_t end, size_t chunk) -> Status {
            for (size_t i = begin; i < end; ++i) {
              if (stop_requested.load(std::memory_order_relaxed)) break;
              if (options.control.StopRequested()) {
                stop_requested.store(true, std::memory_order_relaxed);
                break;
              }
              EvaluateView(state, list[i], space_budget, &slots[list[i]],
                           &chunk_scratch[chunk], &chunk_work[chunk]);
            }
            return Status::Ok();
          });
      for (const WorkCounts& w : chunk_work) {
        stage_evals += w.evals;
        result.stats.cost_cells += w.cells;
        result.stats.exact_rechecks += w.rechecks;
      }
      return st;
    };
    Status evaluated = evaluate_list(dirty);
    result.candidates_evaluated += stage_evals;
    if (!evaluated.ok()) {
      result.status = evaluated.WithContext("bundle growth");
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

    // Deterministic reduction over all views: ascending view id with
    // strictly-greater ratio implements the documented candidate order.
    // Bound-pruned stale slots are harmless: their cached ratio is at
    // most their bound, strictly below the best clean ratio, which
    // itself participates. Beam-deferred slots are masked out.
    const ViewSlot* winner = nullptr;
    auto reduce = [&] {
      winner = nullptr;
      for (uint32_t v = 0; v < num_views; ++v) {
        if (beam_out[v] != 0) continue;
        const ViewSlot& s = slots[v];
        if (s.valid && (winner == nullptr || s.ratio() > winner->ratio())) {
          winner = &s;
        }
      }
    };
    reduce();
    if (winner == nullptr && !deferred.empty()) {
      // The beam hid every remaining positive candidate: grow the
      // deferred set after all, so a beam run never stops before the
      // exact one would.
      for (uint32_t v : deferred) beam_out[v] = 0;
      const uint64_t evals_before = stage_evals;
      Status fallback = evaluate_list(deferred);
      result.stats.cache_misses += deferred.size();
      result.candidates_evaluated += stage_evals - evals_before;
      deferred.clear();
      if (!fallback.ok()) {
        result.status = fallback.WithContext("bundle growth");
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
    if (winner == nullptr) {
      end_stage();
      break;
    }
    if (!deferred.empty()) {
      result.beam_skipped += deferred.size();
      result.beam_stage_factor = std::min(
          result.beam_stage_factor,
          winner->ratio() / std::max(winner->ratio(), deferred_bound));
      for (uint32_t v : deferred) beam_out[v] = 0;
    }

    const Candidate c = winner->candidate;  // copy: Apply dirties the slot
    double per_structure =
        winner->benefit / static_cast<double>(c.NumStructures());
    state.Apply(c);
    // The picked view's candidate family changed (bundle growth gives
    // way to single indexes, or an index left the family): its stale
    // bound no longer applies, so force re-evaluation.
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
  result.metrics = metrics_scope.Delta();
  return result;
}

}  // namespace olapidx
