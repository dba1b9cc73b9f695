// Exact optimal selection via depth-first branch-and-bound.
//
// The selection problem is NP-complete (Section 5: reduction from
// Set-Cover), so this solver is for the small instances used to measure the
// greedy algorithms' empirical optimality ratios (Section 6) and to verify
// the theoretical guarantees in tests.
//
// Pruning uses a fractional-knapsack upper bound over per-structure
// benefits computed against the empty selection. Those are valid optimistic
// bounds because query-cost benefit is subadditive: the benefit of a set
// never exceeds the sum of its members' individual benefits, and individual
// benefits only shrink as the selection grows.

#ifndef OLAPIDX_CORE_OPTIMAL_H_
#define OLAPIDX_CORE_OPTIMAL_H_

#include <cstdint>

#include "core/selection_result.h"

namespace olapidx {

struct OptimalOptions {
  // Abort (returning the best selection found so far, with
  // proven_optimal = false) after this many search nodes.
  uint64_t node_limit = 50'000'000;
};

// Maximizes benefit subject to total space <= space_budget (an index may be
// chosen only together with its view). `result.proven_optimal` reports
// whether the search ran to completion. A graph that is not finalized or a
// negative or non-finite budget is rejected (ValidateSelectionInput).
SelectionResult BranchAndBoundOptimal(const QueryViewGraph& graph,
                                      double space_budget,
                                      const OptimalOptions& options = {});

// A certified upper bound on the optimal benefit for the given budget: the
// minimum of (a) the solver's root relaxation — fractional knapsack over
// per-structure benefits against the empty selection — and (b) the perfect
// benefit — every query answered at its cheapest edge regardless of space.
// Cheap even on instances far too large for the exact solver;
// benefit(heuristic) / UpperBoundBenefit is a certified lower bound on the
// heuristic's true optimality ratio. A graph that is not finalized or a
// negative or non-finite budget is rejected (ValidateSelectionInput).
StatusOr<double> UpperBoundBenefit(const QueryViewGraph& graph,
                                   double space_budget);

// The perfect benefit alone: Σ f_i (T_i − cheapest cost of any structure
// for query i). No selection can beat this at any budget. A graph that is
// not finalized is rejected.
StatusOr<double> PerfectBenefit(const QueryViewGraph& graph);

}  // namespace olapidx

#endif  // OLAPIDX_CORE_OPTIMAL_H_
