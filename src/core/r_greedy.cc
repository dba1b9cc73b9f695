#include "core/r_greedy.h"

#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "common/trace.h"
#include "core/greedy_driver.h"
#include "core/selection_state.h"

namespace olapidx {

namespace {

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
// keeps the earliest). `useful` is the chunk's scratch.
//
// The slot's bound is its ratio, a certified upper bound on every
// candidate of this view at any later state (CELF generalized beyond
// r = 1): benefits are monotone non-increasing, and every un-enumerated
// subset reduces to an enumerated one with at least its ratio. It is not
// certified when max_subsets_per_view truncated the enumeration. A view
// with no positive candidate can never regain one while its candidate
// family is unchanged, so its bound is -inf and the prune always skips it.
void EvaluateView(const SelectionState& state, uint32_t v,
                  const RGreedyOptions& options, GreedySlot* slot,
                  std::vector<int32_t>* useful, GreedyWork* work) {
  const QueryViewGraph& graph = state.graph();
  // One evaluation reads a cost cell per position for the view (when the
  // candidate adds it) and for each of its indexes.
  const uint64_t positions = graph.ViewQueries(v).size();
  auto benefit_of = [&](const Candidate& c) {
    ++work->evals;
    work->cells += positions * ((c.add_view ? 1 : 0) + c.indexes.size());
    return state.CandidateBenefit(c);
  };
  auto consider = [&](const Candidate& c, double benefit) {
    if (benefit <= 0.0) return;
    const double space = state.CandidateSpace(c);
    if (!slot->valid || benefit / space > slot->ratio()) {
      slot->valid = true;
      slot->benefit = benefit;
      slot->space = space;
      slot->candidate = c;
    }
  };

  if (!state.ViewSelected(v)) {
    // (a) The view plus at most r-1 of its indexes.
    Candidate view_only{v, /*add_view=*/true, {}};
    double view_benefit = benefit_of(view_only);
    consider(view_only, view_benefit);

    // Indexes worth pairing with the view: those that improve at least
    // one query beyond the plain view scan. An index that adds nothing
    // next to the view alone can never add anything inside a larger
    // candidate (a set's offered cost is the min over its members).
    useful->clear();
    if (options.r >= 2) {
      for (int32_t k = 0; k < graph.num_indexes(v); ++k) {
        Candidate with_index{v, /*add_view=*/true, {k}};
        double b = benefit_of(with_index);
        consider(with_index, b);
        if (b > view_benefit) useful->push_back(k);
      }
    }
    if (options.r >= 3 && useful->size() >= 2) {
      size_t emitted = EnumerateSubsets(
          *useful, options.r - 1, options.max_subsets_per_view,
          [&](const std::vector<int32_t>& subset) {
            Candidate c{v, /*add_view=*/true, subset};
            consider(c, benefit_of(c));
          });
      if (emitted == options.max_subsets_per_view) {
        uint64_t total = TotalSubsetCount(useful->size(), options.r - 1);
        if (total > emitted) {
          work->truncated += total - emitted;
          slot->bound_ok = false;
        }
      }
    }
  } else {
    // (b) A single not-yet-selected index of the already-selected view.
    for (int32_t k = 0; k < graph.num_indexes(v); ++k) {
      if (state.IndexSelected(v, k)) continue;
      Candidate c{v, /*add_view=*/false, {k}};
      consider(c, benefit_of(c));
    }
  }
  slot->bound = slot->valid ? slot->ratio()
                            : -std::numeric_limits<double>::infinity();
}

// CELF-style lazy 1-greedy: a max-heap of candidates keyed by their last
// computed benefit-per-space; submodularity makes stale keys upper bounds.
SelectionResult LazyOneGreedy(const QueryViewGraph& graph,
                              double space_budget,
                              const RGreedyOptions& options) {
  OLAPIDX_TRACE_SPAN("rgreedy.lazy_run");
  SelectionState state(&graph);
  SelectionResult result;
  Status replayed = BeginGreedyRun(options.resume, &state, &result);
  if (!replayed.ok()) return SelectionResult::Rejected(replayed);
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
  while (state.SpaceUsed() < space_budget && !heap.empty() &&
         GreedyStageAllowed(options.control, steps_this_call, &result)) {
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
  EndGreedyRun(state, run_start, steps_this_call, &result);
  return result;
}

}  // namespace

SelectionResult RGreedy(const QueryViewGraph& graph, double space_budget,
                        const RGreedyOptions& options) {
  // Boundary-reachable misuse (CLI flags, checkpoint files) is rejected,
  // not aborted on; OLAPIDX_CHECK below here guards internal invariants
  // only.
  if (Status s = ValidateSelectionInput(graph, space_budget); !s.ok()) {
    return SelectionResult::Rejected(std::move(s));
  }
  if (options.r < 1) {
    return SelectionResult::Rejected(Status::InvalidArgument(
        "r must be >= 1, got " + std::to_string(options.r)));
  }
  // Per-run registry delta, captured fresh for every call so repeated
  // runs against the same options/state object never accumulate.
  MetricsRunScope scope;
  auto evaluate = [&](const SelectionState& state, uint32_t v,
                      GreedySlot* slot, std::vector<int32_t>* useful,
                      GreedyWork* work) {
    EvaluateView(state, v, options, slot, useful, work);
  };
  SelectionResult result =
      options.r == 1 && options.lazy_one_greedy
          ? LazyOneGreedy(graph, space_budget, options)
          : RunEagerGreedy<std::vector<int32_t>>(
                graph, space_budget, options,
                {"rgreedy.run", "rgreedy.stage", "candidate evaluation"},
                evaluate);
  result.metrics = scope.Delta();
  return result;
}

}  // namespace olapidx
