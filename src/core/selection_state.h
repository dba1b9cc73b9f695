// SelectionState: incremental evaluation of τ(G, M) and of the benefit
// B(C, M) of candidate structure sets (Section 5.2).
//
// The state keeps, per query, the best cost achievable with the currently
// selected set M. Evaluating a candidate touches only the queries adjacent
// to the candidate's view, and applying a pick updates the state in place —
// the workhorse that keeps the greedy algorithms near their theoretical
// running times.

#ifndef OLAPIDX_CORE_SELECTION_STATE_H_
#define OLAPIDX_CORE_SELECTION_STATE_H_

#include <vector>

#include "common/status.h"
#include "core/selection_result.h"

namespace olapidx {

// A candidate set C for one greedy stage. All structures belong to a single
// view (the only shape the paper's algorithms ever consider): either the
// view plus some of its indexes, or — when the view is already selected —
// indexes alone.
struct Candidate {
  uint32_t view = 0;
  bool add_view = false;         // true iff the view itself is newly added
  std::vector<int32_t> indexes;  // index positions within the view

  size_t NumStructures() const {
    return indexes.size() + (add_view ? 1 : 0);
  }
};

class SelectionState {
 public:
  explicit SelectionState(const QueryViewGraph* graph);

  const QueryViewGraph& graph() const { return *graph_; }

  double TotalCost() const { return total_cost_; }
  double SpaceUsed() const { return space_used_; }
  // Accumulated maintenance cost of the selected structures (0 unless the
  // graph uses the update-aware extension).
  double TotalMaintenance() const { return maintenance_; }
  // B(M, ∅): total benefit accumulated so far, net of maintenance.
  double TotalBenefit() const {
    return initial_cost_ - total_cost_ - maintenance_;
  }

  bool ViewSelected(uint32_t v) const { return view_selected_[v] != 0; }
  bool IndexSelected(uint32_t v, int32_t k) const {
    return index_selected_[index_begin_[v] + static_cast<size_t>(k)] != 0;
  }
  bool Selected(StructureRef s) const {
    return s.is_view() ? ViewSelected(s.view)
                       : IndexSelected(s.view, s.index);
  }

  const std::vector<StructureRef>& picks() const { return picks_; }

  // Space the candidate would add (sum of its structures' spaces).
  double CandidateSpace(const Candidate& c) const;

  // B(C, M): decrease in τ if the candidate were added to the current
  // selection, minus the candidate's maintenance cost. The candidate must
  // be *valid*: its view either included in the candidate or already
  // selected, and no structure already selected.
  double CandidateBenefit(const Candidate& c) const;

  // Maintenance cost the candidate would add.
  double CandidateMaintenance(const Candidate& c) const;

  // Benefit per unit space; 0-space candidates are invalid.
  double CandidateBenefitPerSpace(const Candidate& c) const {
    return CandidateBenefit(c) / CandidateSpace(c);
  }

  // Adds the candidate to M, updating per-query best costs, τ and space.
  void Apply(const Candidate& c);

  // Convenience for single-structure candidates.
  double StructureBenefit(StructureRef s) const;
  void ApplyStructure(StructureRef s);

  // Current best cost for query q (min of T_q and selected structures).
  double QueryBestCost(uint32_t q) const { return best_cost_[q]; }

  // ---- Dirty-set invalidation support (benefit memoization) ----
  //
  // A candidate's benefit depends on the current state only through the
  // best costs of the queries adjacent to its view. Apply() bumps the
  // version of every view adjacent to a query whose best cost it changed
  // (fan-out via QueryViewGraph::QueryViews). Hence a benefit computed
  // for a candidate on view v while ViewVersion(v) == t is
  //   * bit-exact as long as ViewVersion(v) == t still holds, and
  //   * an upper bound on the current benefit otherwise (single-view
  //     candidate benefits are monotone non-increasing in M, the
  //     submodularity fact the CELF lazy trick relies on).
  uint64_t ViewVersion(uint32_t v) const { return view_version_[v]; }

 private:
  void ValidateCandidate(const Candidate& c) const;

  const QueryViewGraph* graph_;
  std::vector<double> best_cost_;           // per query
  std::vector<uint8_t> view_selected_;      // per view
  // Index k of view v is index_selected_[index_begin_[v] + k]: one array
  // for every view's flags, not a heap block per view.
  std::vector<uint32_t> index_begin_;
  std::vector<uint8_t> index_selected_;
  std::vector<StructureRef> picks_;
  std::vector<uint64_t> view_version_;  // bumped when a view's benefit may change
  double initial_cost_ = 0.0;
  double total_cost_ = 0.0;
  double space_used_ = 0.0;
  double maintenance_ = 0.0;
};

// Replays a checkpointed pick prefix into `state` and seeds `result` with
// the replayed picks/benefits/stage count. Validates against the graph —
// ids in range, no duplicates, every index pick preceded by its view,
// parallel benefit array — and returns InvalidArgument (leaving the run
// rejected) instead of aborting on a corrupt or mismatched checkpoint.
Status ReplayPicks(const ResumePicks& resume, SelectionState* state,
                   SelectionResult* result);

}  // namespace olapidx

#endif  // OLAPIDX_CORE_SELECTION_STATE_H_
