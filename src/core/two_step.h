// Baselines against which the paper argues:
//
//  * HruViewGreedy — the [HRU96] greedy under a space constraint, selecting
//    views only (no indexes). This is both the no-index baseline and the
//    first stage of the two-step process.
//  * TwoStep — the industry practice the paper criticizes ([MS95],
//    Example 2.1): split the budget between views and indexes a priori,
//    greedily pick views in the first step, then greedily pick indexes on
//    those views in the second step.

#ifndef OLAPIDX_CORE_TWO_STEP_H_
#define OLAPIDX_CORE_TWO_STEP_H_

#include "core/selection_result.h"

namespace olapidx {

struct TwoStepOptions {
  // Fraction of the budget reserved for indexes (Example 2.1 divides the
  // space equally, i.e. 0.5; the example's moral is that the best split —
  // three quarters there — cannot be known a priori).
  double index_fraction = 0.5;
  // If true, a stage never overshoots its budget (candidates that do not
  // fit are skipped); if false, stages use [HRU96] semantics — keep picking
  // while strictly under budget, allowing the final pick to overshoot.
  bool strict_fit = false;
};

// Both reject, rather than abort on, a graph that is not finalized and a
// negative or non-finite budget (ValidateSelectionInput); TwoStep also
// rejects an index_fraction outside [0, 1] (NaN included).

// Views-only greedy with the whole budget (no indexes ever selected).
SelectionResult HruViewGreedy(const QueryViewGraph& graph,
                              double space_budget, bool strict_fit = false);

SelectionResult TwoStep(const QueryViewGraph& graph, double space_budget,
                        const TwoStepOptions& options);

}  // namespace olapidx

#endif  // OLAPIDX_CORE_TWO_STEP_H_
