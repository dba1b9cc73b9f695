// HierarchicalAdvisor: the high-level recommendation API for hierarchical
// cubes — the counterpart of core/advisor.h over the level-vector lattice,
// with the same resilient runtime surface: Status-propagating Create,
// TryRecommend with RunControl (deadline / stage budget / cancellation)
// for the greedy algorithms, and checkpoint/resume in lattice terms (level
// vectors and dimension orders, not graph ids). Returns picks as (level
// vector, optional index dimension order), ready to feed
// HierarchicalCatalog.

#ifndef OLAPIDX_HIERARCHY_HIERARCHICAL_ADVISOR_H_
#define OLAPIDX_HIERARCHY_HIERARCHICAL_ADVISOR_H_

#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/advisor.h"
#include "hierarchy/hierarchical_graph.h"

namespace olapidx {

struct HRecommendedStructure {
  LevelVector view;
  // Empty = the view itself; otherwise a fat index keyed in this
  // hierarchy-dimension order.
  std::vector<int> index_order;
  std::string name;
  double space = 0.0;

  bool is_view() const { return index_order.empty(); }
};

// The pick prefix of an interrupted greedy run, in lattice terms (level
// vectors and dimension orders) so it survives re-building the graph in a
// later process. The hierarchical counterpart of SelectionCheckpoint;
// `algorithm` and `space_budget` let the resuming run verify it is
// continuing the same selection problem.
struct HSelectionCheckpoint {
  std::string algorithm;  // AlgorithmName() of the original run
  double space_budget = 0.0;
  uint64_t stages = 0;    // greedy stages the prefix represents
  // QueryViewGraph::Fingerprint() of the hierarchical graph the checkpoint
  // was taken against; 0 = not stamped. TryRecommend rejects a nonzero
  // mismatch (same contract as the flat SelectionCheckpoint).
  uint64_t graph_fingerprint = 0;
  std::vector<HRecommendedStructure> picks;  // in original pick order
  std::vector<double> pick_benefits;         // parallel to picks (the a_i)
};

struct HRecommendation {
  // Run outcome, mirroring raw.status: OK = complete; an interruption code
  // = anytime partial design (still fully usable); any other code = the
  // config or checkpoint was rejected and the recommendation is empty.
  Status status;
  bool completed = true;
  std::vector<HRecommendedStructure> structures;
  double space_used = 0.0;
  double initial_average_cost = 0.0;
  double average_query_cost = 0.0;
  // Fingerprint of the graph this recommendation was computed against
  // (copied into checkpoints by ToCheckpoint); 0 only for rejected runs.
  uint64_t graph_fingerprint = 0;
  SelectionResult raw;

  // Packages this (typically interrupted) recommendation as a resumable
  // checkpoint, stamped with the producing config's algorithm and budget.
  HSelectionCheckpoint ToCheckpoint(const AdvisorConfig& config) const;
};

class HierarchicalAdvisor {
 public:
  // Status-propagating construction: surfaces
  // TryBuildHierarchicalCubeGraph errors (bad row counts, oversized
  // lattices, malformed query roles, bad pruning knobs) instead of
  // aborting. With options.pruning set the advisor works over the pruned
  // lattice: recommendations and plans cover the *retained* query set, and
  // sparse_stats() reports what was dropped.
  static StatusOr<HierarchicalAdvisor> Create(
      const HierarchicalSchema& schema, double raw_rows,
      const std::vector<WeightedHQuery>& workload,
      const HierarchicalGraphOptions& options = {});

  // Pruning/build telemetry of a pruned build; nullptr without pruning.
  const SparseBuildStats* sparse_stats() const {
    return cube_graph_.sparse_stats ? &*cube_graph_.sparse_stats : nullptr;
  }

  const HierarchicalCubeGraph& cube_graph() const { return cube_graph_; }
  const HierarchicalSchema& schema() const { return schema_; }
  // QueryViewGraph::Fingerprint() of this advisor's graph, computed once
  // at construction (the graph is immutable from then on).
  uint64_t graph_fingerprint() const { return graph_fingerprint_; }

  // Supports the greedy algorithms and the exact solver; two-step uses
  // the config's two_step options. config.control interrupts the greedy
  // algorithms anytime-style; `resume` warm-starts them from a checkpoint
  // (algorithm tag and budget must match, picks are resolved against this
  // graph). config.resume (the *flat* checkpoint slot) must be null here —
  // flat attribute-set checkpoints cannot be resolved against a
  // hierarchical lattice.
  HRecommendation TryRecommend(
      const AdvisorConfig& config,
      const HSelectionCheckpoint* resume = nullptr) const;

 private:
  HierarchicalAdvisor(const HierarchicalSchema& schema,
                      HierarchicalCubeGraph cube_graph);

  HierarchicalSchema schema_;
  HierarchicalCubeGraph cube_graph_;
  uint64_t graph_fingerprint_ = 0;
};

}  // namespace olapidx

#endif  // OLAPIDX_HIERARCHY_HIERARCHICAL_ADVISOR_H_
