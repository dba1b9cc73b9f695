// TryBuildSparseCubeGraph: the pruned plan of the flat build pipeline,
// which breaks the n ≤ 8 wall of TryBuildCubeGraph (core/cube_graph.h, the
// same pipeline's identity plan; both are defined in sparse_cube_graph.cc).
//
// The identity plan enumerates all 2^n views, each with all m! fat indexes,
// so n = 12–20 is out of reach. This plan scales to kMaxDimensions (20) by
// pruning on three axes before any edge exists (core/pruning_policy.h):
//
//   1. Queries: keep only the queries carrying non-negligible frequency
//      mass (a mass threshold and/or a top-k cap over the explicit
//      workload). With a Zipf-skewed workload the dropped tail contributes
//      almost nothing to τ(G, M).
//   2. Views: keep only views reachable as supersets of some retained
//      query's A ∪ B (plus the base view, which anchors default costs) —
//      no other view can answer any retained query, so the lattice's
//      remaining 2^n − |reachable| views are pure waste. A soft cap bounds
//      the blow-up for queries with few mentioned attributes.
//   3. Indexes: views with at most max_fat_dim attributes get the paper's
//      full fat-index family (m! permutations); wider views get a
//      workload-derived candidate family instead — one fat key per
//      distinct selection ∩ view over the retained answerable queries,
//      with the selection attributes leading. Every retained query still
//      finds a key whose prefix covers its whole usable selection, so the
//      candidate family preserves exactly the per-query best costs the
//      full m! family would offer, at O(|W|) keys per view.
//
// Like every query-view graph, it stores one prototype cost column per
// column class (see QueryViewGraph::IndexCostAt), so the per-view tables
// stay proportional to the number of *distinct* columns, not queries ×
// indexes.
//
// Both plans run through one provider (FlatPlanProvider), so the costs of
// every kept (query, view, index) equal the identity graph's bit for bit.
// With nothing pruned — full query set, query_mass = 1, no caps, and every
// view within max_fat_dim — the two graphs are identical (pinned by test).

#ifndef OLAPIDX_CORE_SPARSE_CUBE_GRAPH_H_
#define OLAPIDX_CORE_SPARSE_CUBE_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/status.h"
#include "core/cube_graph.h"
#include "core/pruning_policy.h"
#include "cost/cost_model.h"
#include "cost/view_sizes.h"
#include "lattice/schema.h"
#include "workload/workload.h"

namespace olapidx {

struct SparseCubeGraphOptions {
  // The pruning knobs, with PruningOptions' meaning, defaults and range
  // check (core/pruning_policy.h).
  size_t top_queries = 0;
  double query_mass = 1.0;
  size_t max_views = 1u << 16;
  int max_fat_dim = 6;

  // Same meaning as in CubeGraphOptions.
  double default_query_cost = 0.0;
  double raw_scan_penalty = 1.0;
  double maintenance_per_row = 0.0;
  size_t num_threads = 0;
  std::shared_ptr<const CostModel> cost_model = nullptr;
};

// SparseBuildStats lives in core/pruning_policy.h (shared with the
// hierarchical pruned plan).

struct SparseCubeGraph {
  // Reuses the dense result type so the advisor, checkpoints, and plan
  // mapping work unchanged; view ids are dense in the *retained* view set
  // (ascending mask order), not lattice masks.
  CubeGraph cube;
  SparseBuildStats stats;
};

StatusOr<SparseCubeGraph> TryBuildSparseCubeGraph(
    const CubeSchema& schema, const ViewSizes& sizes,
    const Workload& workload, const SparseCubeGraphOptions& options = {});

}  // namespace olapidx

#endif  // OLAPIDX_CORE_SPARSE_CUBE_GRAPH_H_
