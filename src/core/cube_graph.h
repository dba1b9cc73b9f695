// BuildCubeGraph: instantiates the Section 5.1 query-view graph for a data
// cube — views = all 2^n subcubes, indexes = fat indexes (or, for the
// pruning ablation, all ordered-subset indexes), queries = a slice-query
// workload, edge costs from the linear cost model.

#ifndef OLAPIDX_CORE_CUBE_GRAPH_H_
#define OLAPIDX_CORE_CUBE_GRAPH_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "common/status.h"
#include "core/query_view_graph.h"
#include "cost/cost_model.h"
#include "cost/linear_cost_model.h"
#include "cost/view_sizes.h"
#include "lattice/cube_lattice.h"
#include "lattice/schema.h"
#include "workload/workload.h"

namespace olapidx {

struct CubeGraphOptions {
  // If true (the paper's default), only fat indexes — permutations of the
  // full view attribute set — are considered (Section 4.2.2's pruning).
  // If false, every ordered subset of the view's attributes becomes an
  // index (the ablation showing the pruning is lossless).
  bool fat_indexes_only = true;

  // The default cost T_i of answering a query from raw data. If 0, it is
  // raw_scan_penalty × (base view size). Must be non-negative.
  double default_query_cost = 0.0;

  // Update-aware extension: maintenance cost charged per row of each
  // selected structure (refreshing a materialized subcube or B-tree after
  // base-data updates costs work proportional to its size). 0 reproduces
  // the paper's space-only model exactly. Must be non-negative.
  double maintenance_per_row = 0.0;

  // Multiplier on the base view's size used for the default cost. The
  // paper's raw data is the *normalized* TPC-D schema, so answering a query
  // from it costs join work on top of the scan; any penalty > 1 makes
  // materializing the base cube worthwhile (as in every trace in the
  // paper), and the final query costs are penalty-invariant once every
  // query's chosen plan beats raw. Must be >= 1.
  double raw_scan_penalty = 1.0;

  // Threads for the edge-enumeration phase of the fast builder. 0 uses the
  // shared pool (OLAPIDX_THREADS / hardware concurrency); any value > 0
  // builds with a dedicated pool of that size. The resulting graph is
  // identical for every thread count.
  size_t num_threads = 0;

  // Cost model charging every edge. Null means the paper's linear model
  // (bit-identical to the historical hard-coded |C|/|E| path). Shared so
  // long-lived holders (Advisor, service) keep the model alive past the
  // options struct.
  std::shared_ptr<const CostModel> cost_model = nullptr;
};

// A cube-instantiated query-view graph plus the metadata needed to map graph
// ids back to cube objects (for reporting and for the execution engine).
// Index keys live in the graph, their one owner: graph.index_key(v, k).
struct CubeGraph {
  QueryViewGraph graph;
  // graph view id -> subcube attribute set.
  std::vector<AttributeSet> view_attrs;
  // graph query id -> slice query.
  std::vector<SliceQuery> queries;
};

// Fast builder: per query, only the views C ⊇ A∪B are visited (ascending
// submask-complement walk), each view's fat indexes are costed once per
// prefix-equivalence class (the cost c(Q,V,J) = |C|/|E| depends only on the
// set E, the maximal selection-only prefix) and emitted as contiguous rank
// runs, and queries are partitioned across a thread pool with per-shard
// run buffers merged deterministically. This is the identity plan of the
// flat build pipeline, defined beside its pruned plan in
// core/sparse_cube_graph.cc: it keeps every query, every view (graph view
// id = attribute mask) and the canonical index family, and runs none of
// the pruning passes of TryBuildSparseCubeGraph. The machinery is the
// generic BuildLatticeGraph (core/lattice_graph_builder.h), shared with the
// hierarchical builder. Returns InvalidArgument for n > 8 with
// fat_indexes_only (n > 6 for the ablation), raw_scan_penalty < 1, or a
// negative maintenance_per_row or default_query_cost (NaN included)
// instead of aborting.
StatusOr<CubeGraph> TryBuildCubeGraph(const CubeSchema& schema,
                                      const ViewSizes& sizes,
                                      const Workload& workload,
                                      const CubeGraphOptions& options = {});

// TryBuildCubeGraph that aborts on error (the historical signature; every
// in-tree caller passes dimensions within the supported range).
CubeGraph BuildCubeGraph(const CubeSchema& schema, const ViewSizes& sizes,
                         const Workload& workload,
                         const CubeGraphOptions& options = {});

// The original serial triple-loop builder, retained verbatim as the
// differential oracle for the fast path (tests) and as the baseline for
// bench_graph_build. Produces a bit-identical CubeGraph.
CubeGraph BuildCubeGraphReference(const CubeSchema& schema,
                                  const ViewSizes& sizes,
                                  const Workload& workload,
                                  const CubeGraphOptions& options = {});

}  // namespace olapidx

#endif  // OLAPIDX_CORE_CUBE_GRAPH_H_
