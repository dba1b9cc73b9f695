#include "core/two_step.h"

#include <algorithm>
#include <string>
#include <utility>

#include "core/selection_state.h"

namespace olapidx {

namespace {

// One stage type: repeatedly pick the single best view (is_view_stage) or
// the single best index on a selected view, by benefit per unit space,
// charging the stage's own budget. Returns space consumed by this stage.
double RunSingleStructureStage(const QueryViewGraph& graph,
                               SelectionState& state, bool is_view_stage,
                               double stage_budget, bool strict_fit,
                               SelectionResult& result) {
  double used = 0.0;
  for (;;) {
    if (used >= stage_budget) break;
    double remaining = stage_budget - used;
    bool found = false;
    StructureRef best{};
    double best_ratio = 0.0;
    double best_benefit = 0.0;
    for (uint32_t v = 0; v < graph.num_views(); ++v) {
      if (is_view_stage) {
        if (state.ViewSelected(v)) continue;
        if (strict_fit && graph.view_space(v) > remaining) continue;
        StructureRef s{v, StructureRef::kNoIndex};
        double b = state.StructureBenefit(s);
        ++result.candidates_evaluated;
        if (b <= 0.0) continue;
        double ratio = b / graph.view_space(v);
        if (!found || ratio > best_ratio) {
          found = true;
          best = s;
          best_ratio = ratio;
          best_benefit = b;
        }
      } else {
        if (!state.ViewSelected(v)) continue;
        for (int32_t k = 0; k < graph.num_indexes(v); ++k) {
          if (state.IndexSelected(v, k)) continue;
          if (strict_fit && graph.index_space(v, k) > remaining) continue;
          StructureRef s{v, k};
          double b = state.StructureBenefit(s);
          ++result.candidates_evaluated;
          if (b <= 0.0) continue;
          double ratio = b / graph.index_space(v, k);
          if (!found || ratio > best_ratio) {
            found = true;
            best = s;
            best_ratio = ratio;
            best_benefit = b;
          }
        }
      }
    }
    if (!found) break;
    state.ApplyStructure(best);
    used += graph.structure_space(best);
    result.picks.push_back(best);
    result.pick_benefits.push_back(best_benefit);
  }
  return used;
}

void InitResult(const QueryViewGraph& graph, const SelectionState& state,
                SelectionResult& result) {
  result.initial_cost = state.TotalCost();
  for (uint32_t q = 0; q < graph.num_queries(); ++q) {
    result.total_frequency += graph.query_frequency(q);
  }
}

}  // namespace

SelectionResult HruViewGreedy(const QueryViewGraph& graph,
                              double space_budget, bool strict_fit) {
  if (Status s = ValidateSelectionInput(graph, space_budget); !s.ok()) {
    return SelectionResult::Rejected(std::move(s));
  }
  SelectionState state(&graph);
  SelectionResult result;
  InitResult(graph, state, result);
  RunSingleStructureStage(graph, state, /*is_view_stage=*/true, space_budget,
                          strict_fit, result);
  result.space_used = state.SpaceUsed();
  result.final_cost = state.TotalCost();
  result.total_maintenance = state.TotalMaintenance();
  return result;
}

SelectionResult TwoStep(const QueryViewGraph& graph, double space_budget,
                        const TwoStepOptions& options) {
  if (Status s = ValidateSelectionInput(graph, space_budget); !s.ok()) {
    return SelectionResult::Rejected(std::move(s));
  }
  if (!(options.index_fraction >= 0.0 && options.index_fraction <= 1.0)) {
    return SelectionResult::Rejected(Status::InvalidArgument(
        "two-step index fraction must be in [0, 1], got " +
        std::to_string(options.index_fraction)));
  }
  SelectionState state(&graph);
  SelectionResult result;
  InitResult(graph, state, result);

  double view_budget = space_budget * (1.0 - options.index_fraction);
  double index_budget = space_budget * options.index_fraction;
  RunSingleStructureStage(graph, state, /*is_view_stage=*/true, view_budget,
                          options.strict_fit, result);
  RunSingleStructureStage(graph, state, /*is_view_stage=*/false,
                          index_budget, options.strict_fit, result);

  result.space_used = state.SpaceUsed();
  result.final_cost = state.TotalCost();
  result.total_maintenance = state.TotalMaintenance();
  return result;
}

}  // namespace olapidx
