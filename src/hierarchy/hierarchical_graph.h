// Instantiates the Section 5.1 query-view graph for a *hierarchical* cube,
// demonstrating the paper's remark that the algorithms are robust to the
// choice of views, queries and indexes: the selection machinery in core/
// runs unchanged on this much richer lattice.
//
// Cost model, generalized: answering query Q from view V with a fat index
// keyed in dimension order D costs |V| / |E| rows, where E is the subcube
// at the longest prefix of D consisting of Q's *selection* dimensions,
// taken at Q's selection levels (with hierarchically clustered key
// encodings a finer-keyed index serves coarser selections as range scans).
// With one level per dimension this reduces exactly to the paper's model —
// and to the paper's *graph*: TryBuildHierarchicalCubeGraph and flat
// TryBuildCubeGraph are the same generic builder
// (core/lattice_graph_builder.h) under the two lattices' providers, and the
// degeneration is tested bit-identical. The lattices keep separate
// providers because they differ in more than levels: flat view ids are
// attribute masks (the complement of one-level hierarchical ids), flat
// sizes come from ViewSizes rather than AnalyticalSizes, and flat names
// come from the attribute dictionary.
//
// Each lattice has one provider and one build pipeline, whose plan says
// what the graph keeps (core/pruning_policy.h). TryBuildHierarchicalCubeGraph
// runs the identity plan, or the pruned plan when
// HierarchicalGraphOptions::pruning is set.

#ifndef OLAPIDX_HIERARCHY_HIERARCHICAL_GRAPH_H_
#define OLAPIDX_HIERARCHY_HIERARCHICAL_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/status.h"
#include "core/pruning_policy.h"
#include "core/query_view_graph.h"
#include "cost/cost_model.h"
#include "hierarchy/hierarchical_cube.h"

namespace olapidx {

struct WeightedHQuery {
  HSliceQuery query;
  double frequency = 1.0;
};

struct HierarchicalGraphOptions {
  // See CubeGraphOptions for the semantics of these knobs.
  double default_query_cost = 0.0;
  double raw_scan_penalty = 1.0;
  double maintenance_per_row = 0.0;
  // If true (the paper's default), only fat indexes — permutations of each
  // view's active (non-ALL) dimensions — are considered. If false, every
  // ordered subset of the active dimensions becomes an index (the pruning
  // ablation, as in the flat builder).
  bool fat_indexes_only = true;
  // Threads for the table fill of the fast builder (0 = shared pool). The
  // resulting graph is identical for every thread count.
  size_t num_threads = 0;
  // Cost model charging every edge; null = the paper's linear model (see
  // CubeGraphOptions::cost_model).
  std::shared_ptr<const CostModel> cost_model = nullptr;
  // Unset: the identity plan, every query, view and canonical index. Set:
  // the workload-pruned plan, with the same pruning policies as the flat
  // TryBuildSparseCubeGraph (query mass / top-k, superset-cone view
  // retention with minimal-view exemption, workload-derived candidate
  // index families for views with more than max_fat_dim active
  // dimensions). It builds fat families only, so it requires
  // fat_indexes_only. Lifts the identity plan's n <= 8 wall; the lattice
  // must still fit kMaxHierarchicalViews (index-edge column classes are
  // keyed by lattice subcube ids), but kMaxHierarchicalStructures applies
  // to the *retained* census, so pruned builds pass where identity ones
  // overflow. Every kept (query, view, index) costs what it costs under
  // the identity plan, bit for bit; with nothing pruned — full workload,
  // query_mass = 1, no caps, every view within max_fat_dim — the two
  // graphs are identical (pinned by test).
  std::optional<PruningOptions> pruning = std::nullopt;
};

// Hierarchical lattices overflow much earlier than flat cubes (the view
// count is Π_d (levels_d + 1), not 2^n), so the fast builder enforces
// explicit size ceilings — the hierarchy counterpart of the flat n > 8
// fat-index guard:
//  * kMaxHierarchicalViews: every index-edge column class is a lattice
//    subcube id plus one, and a pruned plan's id inverse spans the whole
//    lattice, so the lattice is held to 2^20 ids.
//  * kMaxHierarchicalStructures: ceiling on views + indexes, bounding the
//    graph's memory before construction starts.
inline constexpr uint64_t kMaxHierarchicalViews = (uint64_t{1} << 20) - 1;
inline constexpr uint64_t kMaxHierarchicalStructures = uint64_t{1} << 22;

struct HierarchicalCubeGraph {
  QueryViewGraph graph;
  // graph view id -> level assignment. Under the identity plan graph view
  // id == HViewId; under a pruned plan view ids are dense in the
  // *retained* view set (ascending lattice-id order).
  std::vector<LevelVector> view_levels;
  // graph view id -> index position -> dimension order of the index.
  // Populated by the reference builder, and for the candidate families of
  // a pruned build (empty per-view vectors for its fat views); the
  // identity plan leaves it empty and decodes orders on demand. Use
  // IndexOrderOf / IndexPositionOf, which work for all three.
  std::vector<std::vector<std::vector<int>>> index_orders;
  std::vector<HSliceQuery> queries;
  std::vector<double> view_sizes;  // by graph view id
  // Per-dimension ALL level (= num_levels(d)), for active-dim decoding.
  std::vector<int> all_levels;
  bool fat_indexes_only = true;
  // What the pruned plan dropped and built; set only by a build with
  // HierarchicalGraphOptions::pruning.
  std::optional<SparseBuildStats> sparse_stats;

  // The view's non-ALL dimensions, ascending — its index-key dimensions.
  std::vector<int> ActiveDimensionsOf(uint32_t v) const;
  // The dimension order of view v's k-th index, in the canonical family
  // order (FatIndexOrders / AllIndexOrders rank k).
  std::vector<int> IndexOrderOf(uint32_t v, int32_t k) const;
  // Inverse: the index position of `order` within v's family, or -1 when
  // `order` is not a valid key order for v.
  int32_t IndexPositionOf(uint32_t v, const std::vector<int>& order) const;
};

// Fast builder of the hierarchical build pipeline (superset-odometer
// answering-view enumeration, one cost division per prefix-equivalence
// class, view-major parallel table fill, lazy index names). Its
// identity plan keeps every query in input order, every lattice view
// (graph view id = HViewId) and the canonical index family; options.pruning
// selects the pruned plan instead. Returns InvalidArgument instead of
// aborting for bad external input: raw_rows < 1, penalties < 1, negative
// costs (NaN included) or frequencies, malformed query roles (a mentioned
// dimension must sit at a proper level), > 8 dimensions (> 6 for the
// ablation family) under the identity plan, pruning knobs out of range or
// with fat_indexes_only = false, or a lattice exceeding the size ceilings
// above.
StatusOr<HierarchicalCubeGraph> TryBuildHierarchicalCubeGraph(
    const HierarchicalSchema& schema, double raw_rows,
    const std::vector<WeightedHQuery>& workload,
    const HierarchicalGraphOptions& options = {});

// The original serial builder — every view tested per query, every key
// order costed individually, every index name materialized eagerly —
// retained as the differential oracle for the fast path's identity plan
// (tests) and as the baseline for bench_hierarchy. Produces a
// bit-identical graph. options.pruning must be unset.
HierarchicalCubeGraph BuildHierarchicalCubeGraphReference(
    const HierarchicalSchema& schema, double raw_rows,
    const std::vector<WeightedHQuery>& workload,
    const HierarchicalGraphOptions& options = {});

// Convenience: all hierarchical slice queries, equiprobable.
std::vector<WeightedHQuery> UniformHWorkload(
    const HierarchicalSchema& schema);

// A Zipf-weighted sample of `num_queries` distinct hierarchical slice
// queries (each dimension independently absent / group-by / select at a
// uniformly drawn level), the hierarchical counterpart of
// SampledZipfSliceQueries: the k-th distinct query drawn gets the k-th
// Zipf(skew) mass. Deterministic in `seed`.
std::vector<WeightedHQuery> SampledZipfHWorkload(
    const HierarchicalSchema& schema, size_t num_queries, double skew,
    uint64_t seed);

}  // namespace olapidx

#endif  // OLAPIDX_HIERARCHY_HIERARCHICAL_GRAPH_H_
