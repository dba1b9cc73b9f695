// Advisor: the high-level "what should I precompute?" API.
//
// Ties together the cube lattice, the cost model, the workload, and the
// selection algorithms, and returns a physical-design recommendation — the
// structures to materialize plus the best plan for every workload query.
// This is the entry point examples and the execution engine use.

#ifndef OLAPIDX_CORE_ADVISOR_H_
#define OLAPIDX_CORE_ADVISOR_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "core/cube_graph.h"
#include "core/sparse_cube_graph.h"
#include "core/inner_greedy.h"
#include "core/optimal.h"
#include "core/r_greedy.h"
#include "core/selection_result.h"
#include "core/two_step.h"

namespace olapidx {

enum class Algorithm {
  kOneGreedy,      // r-greedy with r = 1
  kRGreedy,        // r-greedy with configurable r
  kInnerLevel,     // inner-level greedy (the paper's practical pick)
  kTwoStep,        // industry baseline: views first, then indexes
  kHruViewsOnly,   // [HRU96] no-index baseline
  kOptimal,        // branch-and-bound (small instances only)
};

const char* AlgorithmName(Algorithm algorithm);

struct SelectionCheckpoint;

struct AdvisorConfig {
  Algorithm algorithm = Algorithm::kInnerLevel;
  double space_budget = 0.0;
  // kRGreedy only.
  RGreedyOptions r_greedy;
  // kInnerLevel only.
  InnerGreedyOptions inner_greedy;
  // kTwoStep only.
  TwoStepOptions two_step;
  // kOptimal only.
  OptimalOptions optimal;

  // Interruption inputs for the greedy algorithms (kOneGreedy, kRGreedy,
  // kInnerLevel): deadline, cancel token, stage budget. An interrupted
  // run returns completed == false with the anytime best-so-far design.
  // Rejected with Unimplemented for the other algorithms (they have no
  // anytime contract), unless the control is unlimited.
  RunControl control = {};

  // Warm start from a checkpoint of an interrupted run (greedy algorithms
  // only). The checkpoint's algorithm tag and budget must match this
  // config; picks are resolved against the cube graph. Not owned; must
  // outlive the Recommend call.
  const SelectionCheckpoint* resume = nullptr;
};

// One recommended structure, in pick order.
struct RecommendedStructure {
  AttributeSet view;
  // Empty key means "the view itself"; otherwise an index on `view`.
  IndexKey index;
  std::string name;
  double space = 0.0;

  bool is_view() const { return index.empty(); }
};

// The pick prefix of an interrupted greedy run, in cube terms (attribute
// sets and keys, not graph ids) so it survives re-building the graph in a
// later process. The on-disk form is "olapidx-checkpoint v1"
// (core/serialize.h); `algorithm` and `space_budget` let the resuming run
// verify it is continuing the same selection problem.
struct SelectionCheckpoint {
  std::string algorithm;              // AlgorithmName() of the original run
  double space_budget = 0.0;
  uint64_t stages = 0;                // greedy stages the prefix represents
  // QueryViewGraph::Fingerprint() of the graph the checkpoint was taken
  // against; 0 = not stamped (legacy checkpoint, or a caller that
  // deliberately warm-starts across graphs). Recommend rejects a nonzero
  // fingerprint that does not match the advisor's graph — picks would
  // resolve by name against the wrong costs and silently corrupt the
  // resumed selection.
  uint64_t graph_fingerprint = 0;
  std::vector<RecommendedStructure> picks;  // in original pick order
  std::vector<double> pick_benefits;        // parallel to picks (the a_i)
};

// The chosen access path for one workload query.
struct QueryPlan {
  SliceQuery query;
  // True when no materialized structure beats the raw table.
  bool use_raw = true;
  AttributeSet view;
  IndexKey index;  // empty = plain scan of `view`
  double estimated_cost = 0.0;
};

struct Recommendation {
  // Run outcome, mirroring raw.status: OK = complete; an interruption
  // code = anytime partial design (still fully usable); any other code =
  // the config or checkpoint was rejected and the recommendation is
  // empty.
  Status status;
  bool completed = true;
  std::vector<RecommendedStructure> structures;
  std::vector<QueryPlan> plans;
  double space_used = 0.0;
  // Frequency-weighted average query cost before/after.
  double initial_average_cost = 0.0;
  double average_query_cost = 0.0;
  // Fingerprint of the graph this recommendation was computed against
  // (copied into checkpoints by ToCheckpoint); 0 only for rejected runs.
  uint64_t graph_fingerprint = 0;
  // The underlying algorithm output (picks as graph ids, τ, work counters).
  SelectionResult raw;

  // Packages this (typically interrupted) recommendation as a resumable
  // checkpoint, stamped with the producing config's algorithm and budget.
  SelectionCheckpoint ToCheckpoint(const AdvisorConfig& config) const;
};

// A checkpoint's header, as RunAdvisorSelection checks it against the run
// it is asked to continue.
struct CheckpointHeader {
  std::string_view algorithm;
  double space_budget = 0.0;
  uint64_t graph_fingerprint = 0;
};

// The selection step of both advisors (Advisor::Recommend,
// HierarchicalAdvisor::TryRecommend). Rejects, as SelectionResult::Rejected:
//   - a negative or non-finite budget, or a two-step index fraction
//     outside [0, 1], whatever the algorithm;
//   - a control or a checkpoint given to an algorithm without an anytime
//     contract;
//   - a checkpoint taken by another algorithm, at another budget or
//     against another graph (a nonzero fingerprint other than
//     `graph_fingerprint`), or one whose picks `resolve` cannot map onto
//     `graph`.
// Otherwise runs config.algorithm on `graph`, resumed from the resolved
// picks when there is a checkpoint; a run the algorithm rejects comes back
// rejected too.
SelectionResult RunAdvisorSelection(
    const QueryViewGraph& graph, uint64_t graph_fingerprint,
    const AdvisorConfig& config, const CheckpointHeader* checkpoint,
    const std::function<Status(ResumePicks*)>& resolve);

// A Recommendation or HRecommendation for a RunAdvisorSelection result: its
// status and the run's summary, stamped with the graph's fingerprint unless
// the run was rejected. The caller adds the picked structures.
template <typename Rec>
Rec PackageRecommendation(SelectionResult result, uint64_t graph_fingerprint) {
  Rec rec;
  rec.status = result.status;
  rec.completed = result.completed;
  if (result.status.ok() || result.status.IsInterruption()) {
    rec.space_used = result.space_used;
    rec.graph_fingerprint = graph_fingerprint;
    rec.initial_average_cost =
        result.total_frequency > 0.0
            ? result.initial_cost / result.total_frequency
            : 0.0;
    rec.average_query_cost = result.AverageQueryCost();
  }
  rec.raw = std::move(result);
  return rec;
}

class Advisor {
 public:
  // Status-propagating construction: surfaces TryBuildCubeGraph errors
  // (e.g. n > 8 with fat indexes) instead of aborting, so a CLI or service
  // can report them.
  static StatusOr<Advisor> Create(const CubeSchema& schema,
                                  const ViewSizes& sizes,
                                  const Workload& workload,
                                  const CubeGraphOptions& options = {});

  // Workload-pruned construction for 12–20 dimension cubes (see
  // core/sparse_cube_graph.h): prunes queries/views/indexes before any
  // edge exists. Recommendations and plans cover the *retained* query set;
  // sparse_stats() reports what was pruned.
  static StatusOr<Advisor> CreateSparse(
      const CubeSchema& schema, const ViewSizes& sizes,
      const Workload& workload, const SparseCubeGraphOptions& options = {});

  const CubeGraph& cube_graph() const { return cube_graph_; }
  const CubeSchema& schema() const { return schema_; }
  const ViewSizes& sizes() const { return sizes_; }
  // The model edges and plans were costed with (the paper's linear model
  // when the construction options left cost_model unset).
  const CostModel& cost_model() const {
    return cost_model_ ? *cost_model_ : PaperCostModel::Instance();
  }
  // Pruning/build telemetry of CreateSparse; nullptr for dense advisors.
  const SparseBuildStats* sparse_stats() const {
    return sparse_stats_ ? &*sparse_stats_ : nullptr;
  }
  // QueryViewGraph::Fingerprint() of this advisor's graph, computed once at
  // construction (the graph is immutable from then on).
  uint64_t graph_fingerprint() const { return graph_fingerprint_; }

  Recommendation Recommend(const AdvisorConfig& config) const;

 private:
  Advisor(const CubeSchema& schema, const ViewSizes& sizes,
          const Workload& workload, CubeGraph cube_graph);

  CubeSchema schema_;
  ViewSizes sizes_;
  Workload workload_;
  CubeGraph cube_graph_;
  uint64_t graph_fingerprint_ = 0;
  std::optional<SparseBuildStats> sparse_stats_;
  std::shared_ptr<const CostModel> cost_model_;
};

}  // namespace olapidx

#endif  // OLAPIDX_CORE_ADVISOR_H_
