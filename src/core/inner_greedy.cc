#include "core/inner_greedy.h"

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "core/column_pricer.h"
#include "core/greedy_driver.h"
#include "core/selection_state.h"

namespace olapidx {

namespace {

// One candidate's increment: exact (lo == hi == the per-position value),
// or a column price known only to lie in [lo, hi].
struct Priced {
  double lo = 0.0;
  double hi = 0.0;
  bool exact = false;
};

// Per-thread buffers of the per-view evaluations, reused across views and
// stages so an evaluation allocates nothing per view. Cache-line aligned:
// the chunks of a pass run side by side and resize these vectors
// constantly.
struct alignas(64) ViewScratch {
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
  const std::span<const uint32_t> queries = graph.ViewQueries(v);
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
                uint32_t v, double space_budget, GreedySlot* slot,
                ViewScratch* scratch, GreedyWork* work) {
  const std::span<const uint32_t> queries = graph.ViewQueries(v);
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
          // certified ratio bound documented on EvaluateView.
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
void BestSingleIndex(const SelectionState& state, uint32_t v, GreedySlot* slot,
                     ViewScratch* scratch, GreedyWork* work) {
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
// best single unselected index when v is selected.
//
// The bound of an unselected view: the grown bundle's own ratio does not
// bound later candidates (re-growth can take a different order), but
//   max(view ratio, max_k marginal_k(view alone) / space_k)
// does: benefit(bundle) <= benefit(view) + sum of first-step marginals
// (submodularity), each term is monotone non-increasing in M, and a ratio
// of sums is at most the max of the per-term ratios (mediant inequality).
// For a selected view the candidates are fixed single indexes and the best
// ratio itself is the bound.
void EvaluateView(const SelectionState& state, uint32_t v,
                  double space_budget, GreedySlot* slot, ViewScratch* scratch,
                  GreedyWork* work) {
  const QueryViewGraph& graph = state.graph();
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
  if (Status s = ValidateSelectionInput(graph, space_budget); !s.ok()) {
    return SelectionResult::Rejected(std::move(s));
  }

  // Per-run registry delta (see SelectionResult::metrics): captured fresh
  // for every call so repeated runs never accumulate.
  MetricsRunScope metrics_scope;
  auto evaluate = [&](const SelectionState& state, uint32_t v,
                      GreedySlot* slot, ViewScratch* scratch,
                      GreedyWork* work) {
    EvaluateView(state, v, space_budget, slot, scratch, work);
  };
  SelectionResult result = RunEagerGreedy<ViewScratch>(
      graph, space_budget, options,
      {"inner_greedy.run", "inner_greedy.stage", "bundle growth"}, evaluate);
  result.metrics = metrics_scope.Delta();
  return result;
}

}  // namespace olapidx
