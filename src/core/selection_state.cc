#include "core/selection_state.h"

#include <algorithm>
#include <span>

namespace olapidx {

SelectionState::SelectionState(const QueryViewGraph* graph) : graph_(graph) {
  OLAPIDX_CHECK(graph != nullptr);
  OLAPIDX_CHECK(graph->finalized());
  best_cost_.reserve(graph->num_queries());
  for (uint32_t q = 0; q < graph->num_queries(); ++q) {
    double cost = graph->query_default_cost(q);
    best_cost_.push_back(cost);
    initial_cost_ += graph->query_frequency(q) * cost;
  }
  total_cost_ = initial_cost_;
  view_selected_.assign(graph->num_views(), 0);
  view_version_.assign(graph->num_views(), 0);
  index_begin_.resize(graph->num_views());
  uint32_t indexes = 0;
  for (uint32_t v = 0; v < graph->num_views(); ++v) {
    index_begin_[v] = indexes;
    indexes += static_cast<uint32_t>(graph->num_indexes(v));
  }
  index_selected_.assign(indexes, 0);
}

void SelectionState::ValidateCandidate(const Candidate& c) const {
  OLAPIDX_CHECK(c.view < graph_->num_views());
  OLAPIDX_CHECK(c.add_view || ViewSelected(c.view));
  OLAPIDX_CHECK(!(c.add_view && ViewSelected(c.view)));
  OLAPIDX_CHECK(c.NumStructures() > 0);
  for (int32_t k : c.indexes) {
    OLAPIDX_CHECK(k >= 0 && k < graph_->num_indexes(c.view));
    OLAPIDX_CHECK(!IndexSelected(c.view, k));
  }
}

double SelectionState::CandidateSpace(const Candidate& c) const {
  double space = c.add_view ? graph_->view_space(c.view) : 0.0;
  for (int32_t k : c.indexes) space += graph_->index_space(c.view, k);
  return space;
}

double SelectionState::CandidateBenefit(const Candidate& c) const {
  OLAPIDX_DCHECK((ValidateCandidate(c), true));
  const uint32_t v = c.view;
  const std::span<const uint32_t> queries = graph_->ViewQueries(v);
  double benefit = 0.0;
  for (size_t pos = 0; pos < queries.size(); ++pos) {
    uint32_t q = queries[pos];
    double current = best_cost_[q];
    // Cheapest way this candidate (with the view, new or pre-selected)
    // could answer q.
    double offered = QueryViewGraph::kInfiniteCost;
    if (c.add_view) {
      offered = graph_->ViewCostAt(v, pos);
    }
    for (int32_t k : c.indexes) {
      offered = std::min(offered, graph_->IndexCostAt(v, k, pos));
    }
    if (offered < current) {
      benefit += graph_->query_frequency(q) * (current - offered);
    }
  }
  return benefit - CandidateMaintenance(c);
}

double SelectionState::CandidateMaintenance(const Candidate& c) const {
  double m = c.add_view ? graph_->structure_maintenance(
                              StructureRef{c.view, StructureRef::kNoIndex})
                        : 0.0;
  for (int32_t k : c.indexes) {
    m += graph_->structure_maintenance(StructureRef{c.view, k});
  }
  return m;
}

void SelectionState::Apply(const Candidate& c) {
  ValidateCandidate(c);
  const uint32_t v = c.view;
  const std::span<const uint32_t> queries = graph_->ViewQueries(v);
  for (size_t pos = 0; pos < queries.size(); ++pos) {
    uint32_t q = queries[pos];
    double offered = QueryViewGraph::kInfiniteCost;
    if (c.add_view) {
      offered = graph_->ViewCostAt(v, pos);
    }
    for (int32_t k : c.indexes) {
      offered = std::min(offered, graph_->IndexCostAt(v, k, pos));
    }
    if (offered < best_cost_[q]) {
      total_cost_ -= graph_->query_frequency(q) * (best_cost_[q] - offered);
      best_cost_[q] = offered;
      // q got cheaper: every view adjacent to q may now offer less benefit.
      for (uint32_t w : graph_->QueryViews(q)) ++view_version_[w];
    }
  }
  // The candidate's own view always changes (its structures became
  // selected), even when the pick improved no query adjacent to some
  // cached evaluation — e.g. a zero-frequency-only improvement.
  ++view_version_[v];
  space_used_ += CandidateSpace(c);
  maintenance_ += CandidateMaintenance(c);
  if (c.add_view) {
    view_selected_[v] = 1;
    picks_.push_back(StructureRef{v, StructureRef::kNoIndex});
  }
  for (int32_t k : c.indexes) {
    index_selected_[index_begin_[v] + static_cast<size_t>(k)] = 1;
    picks_.push_back(StructureRef{v, k});
  }
}

double SelectionState::StructureBenefit(StructureRef s) const {
  Candidate c;
  c.view = s.view;
  if (s.is_view()) {
    c.add_view = true;
  } else {
    c.indexes.push_back(s.index);
  }
  return CandidateBenefit(c);
}

void SelectionState::ApplyStructure(StructureRef s) {
  Candidate c;
  c.view = s.view;
  if (s.is_view()) {
    c.add_view = true;
  } else {
    c.indexes.push_back(s.index);
  }
  Apply(c);
}

Status ReplayPicks(const ResumePicks& resume, SelectionState* state,
                   SelectionResult* result) {
  OLAPIDX_CHECK(state != nullptr && result != nullptr);
  const QueryViewGraph& graph = state->graph();
  if (resume.picks.size() != resume.pick_benefits.size()) {
    return Status::InvalidArgument(
        "checkpoint has " + std::to_string(resume.picks.size()) +
        " picks but " + std::to_string(resume.pick_benefits.size()) +
        " benefits");
  }
  for (size_t i = 0; i < resume.picks.size(); ++i) {
    const StructureRef& ref = resume.picks[i];
    auto fail = [&](const std::string& message) {
      return Status::InvalidArgument("checkpoint pick " +
                                     std::to_string(i + 1) + ": " + message);
    };
    if (ref.view >= graph.num_views()) return fail("view id out of range");
    if (!ref.is_view() &&
        (ref.index < 0 || ref.index >= graph.num_indexes(ref.view))) {
      return fail("index position out of range");
    }
    if (state->Selected(ref)) return fail("structure picked twice");
    if (!ref.is_view() && !state->ViewSelected(ref.view)) {
      return fail("index pick precedes its view");
    }
    state->ApplyStructure(ref);
  }
  result->picks = resume.picks;
  result->pick_benefits = resume.pick_benefits;
  result->stats.stages = resume.stages;
  return Status::Ok();
}

}  // namespace olapidx
