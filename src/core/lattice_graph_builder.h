// The generic, provider-parameterized query-view graph builder — the single
// fast construction path shared by the flat cube (core/sparse_cube_graph.cc)
// and the hierarchical lattice (hierarchy/hierarchical_graph.cc). The paper's
// Section 5 algorithms are lattice-agnostic, and so is this builder: it
// owns the phase sequence (structures → queries → sharded parallel edge
// enumeration streamed into the graph's edge sink → Finalize), the hoisted
// view-size table, the per-shard EdgeRun spill windows, the index-edge
// pruning rule, and the graph_build.* instrumentation, while a
// LatticeProvider supplies the lattice-specific pieces.
//
// LatticeProvider concept (duck-typed). Exactly one provider per lattice
// models it: FlatPlanProvider in core/sparse_cube_graph.cc and
// HierarchicalPlanProvider in hierarchy/hierarchical_graph.cc. Each builds
// whatever its plan keeps (core/pruning_policy.h): the identity plan keeps
// every query, view and canonical key, a pruned plan keeps a subset.
//
//   uint32_t num_views() const;
//   uint32_t BaseView() const;          // the finest view (default-cost base)
//   double   ViewSizeOf(uint32_t v) const;   // rows of view v (hoisted once)
//   void     InitGraph(QueryViewGraph& g) const;
//       // install the lazy-name machinery (SetNameDictionary / SetIndexNamer)
//   void     AddStructures(QueryViewGraph& g, uint32_t v, double size,
//                          double maintenance) const;
//       // AddView (graph id must equal v), optional SetViewMaintenance,
//       // register all of v's indexes lazily, record any id-mapping metadata
//   size_t   num_queries() const;
//   void     AddQuery(QueryViewGraph& g, size_t qi, double default_cost) const;
//   Ctx      MakeQueryContext() const;  // per-worker scratch, any type
//   void     BeginQuery(Ctx& ctx, size_t qi) const;
//   void     ForEachAnsweringView(Ctx& ctx, Visit&& visit) const;
//       // visit(uint32_t v) for every view that can answer the current query
//   uint32_t IndexColumnClass(Ctx& ctx, uint32_t v) const;
//       // 0 iff v has no indexes; otherwise a non-zero id (< 2^20) such that
//       // queries sharing it have bit-identical index-cost columns at v
//       // (EdgeRun::col_class — lets the graph store one prototype column
//       // per class instead of one per query)
//   void     ForEachIndexCostClass(Ctx& ctx, uint32_t v,
//                                  const double* view_size, Emit&& emit) const;
//       // emit(rank_begin, rank_end, prefix_rows): one call per
//       // prefix-equivalence class of v's index family, covering the
//       // contiguous rank range [rank_begin, rank_end) of index positions
//       // whose longest selection-only key prefix has `prefix_rows`
//       // distinct values (the paper's |E|; the builder turns it into a
//       // cost through the CostModel seam)

#ifndef OLAPIDX_CORE_LATTICE_GRAPH_BUILDER_H_
#define OLAPIDX_CORE_LATTICE_GRAPH_BUILDER_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/graph_build_metrics.h"
#include "core/query_view_graph.h"
#include "cost/cost_model.h"
#include "lattice/attribute_set.h"

namespace olapidx {

// The lattice-independent construction knobs; CubeGraphOptions and
// HierarchicalGraphOptions both reduce to this.
struct LatticeGraphOptions {
  // The default cost T_i of answering a query from raw data. If 0, it is
  // raw_scan_penalty × (base view size). Must be non-negative.
  double default_query_cost = 0.0;
  // Multiplier on the base view's size used for the default cost; >= 1.
  double raw_scan_penalty = 1.0;
  // Update-aware extension: maintenance cost charged per row of each
  // selected structure. 0 reproduces the paper's space-only model exactly.
  // Must be non-negative.
  double maintenance_per_row = 0.0;
  // Threads for the edge-enumeration phase. 0 uses the shared pool; any
  // value > 0 builds with a dedicated pool of that size. The resulting
  // graph is identical for every thread count.
  size_t num_threads = 0;
  // Cost model charging every edge (scan, index, and default). Null means
  // the paper's linear model, whose arithmetic matches the historical
  // hard-coded |C|/|E| path bit for bit. The model is read concurrently
  // from worker threads and must outlive the build.
  const CostModel* cost_model = nullptr;
};

// The construction knobs every entry point's options struct carries
// (CubeGraphOptions, SparseCubeGraphOptions and HierarchicalGraphOptions).
template <typename Options>
LatticeGraphOptions LatticeOptionsOf(const Options& options) {
  LatticeGraphOptions build;
  build.default_query_cost = options.default_query_cost;
  build.raw_scan_penalty = options.raw_scan_penalty;
  build.maintenance_per_row = options.maintenance_per_row;
  build.num_threads = options.num_threads;
  build.cost_model = options.cost_model.get();
  return build;
}

// The one range check of the shared knobs, called by every entry point
// before it builds anything. Each test reads !(x >= bound), so NaN fails.
inline Status ValidateLatticeGraphOptions(const LatticeGraphOptions& options) {
  if (!(options.raw_scan_penalty >= 1.0)) {
    return Status::InvalidArgument(
        "raw_scan_penalty must be >= 1 (got " +
        std::to_string(options.raw_scan_penalty) + ")");
  }
  if (!(options.maintenance_per_row >= 0.0)) {
    return Status::InvalidArgument(
        "maintenance_per_row must be non-negative (got " +
        std::to_string(options.maintenance_per_row) + ")");
  }
  if (!(options.default_query_cost >= 0.0)) {
    return Status::InvalidArgument(
        "default_query_cost must be non-negative (got " +
        std::to_string(options.default_query_cost) + ")");
  }
  return Status::Ok();
}

// Streaming spill window: each enumeration shard flushes its EdgeRun
// buffer into the graph's edge sink (QueryViewGraph::ConsumeEdgeRuns) at
// the first query boundary past this many buffered bytes, so peak build
// memory is bounded by the accumulated per-view tables plus (window ×
// shards) instead of every run at once. The graph does not depend on it:
// the sink's merge is order-independent.
inline constexpr size_t kSinkWindowBytes = size_t{1} << 18;

namespace lattice_build {

inline uint64_t MicrosSince(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace lattice_build

// Walks the r-arrangement tree of `view_mask`'s bits (children in ascending
// bit order — the exact order of CubeLattice::FatIndexes / AllIndexes and
// HierarchicalLattice::FatIndexOrders / AllIndexOrders, with bit i standing
// for the i-th key attribute/dimension) and emits, for each
// prefix-equivalence class, the contiguous rank range [begin, end) of
// arrangements sharing it, with the class's maximal selection-only prefix
// set. Ranks are relative to `base` (the ablation stacks one call per
// arrangement length r on top of the previous lengths' ranks).
//
// The walk only recurses through selection bits: a child ∉ sel seals the
// prefix of its whole subtree, so the subtree collapses to one range
// (consecutive sealed siblings merge into one), and once every remaining
// bit lies in sel — possible only for fat indexes, which consume all of
// them — the subtree collapses to one full-prefix range. Work is therefore
// proportional to the number of emitted classes, not to the number of
// arrangements.
template <typename Emit>
void WalkPrefixClasses(uint32_t view_mask, int m, int r, uint32_t sel,
                       int64_t base, const Emit& emit) {
  // sub[d]: leaves below a depth-d node = A(m-d, r-d) falling factorial.
  int64_t sub[kMaxDimensions + 1];
  sub[r] = 1;
  for (int d = r - 1; d >= 0; --d) sub[d] = sub[d + 1] * (m - d);
  auto rec = [&](auto&& self, int d, uint32_t avail, uint32_t prefix,
                 int64_t rank) -> void {
    if (d == r) {  // complete all-selection arrangement
      emit(rank, rank + 1, prefix);
      return;
    }
    if (r == m && (avail & ~sel) == 0) {  // every completion is all-sel
      emit(rank, rank + sub[d], prefix | avail);
      return;
    }
    const int64_t blk = sub[d + 1];
    int64_t run_begin = -1;
    int64_t run_end = 0;
    int i = 0;
    for (uint32_t rest = avail; rest != 0; rest &= rest - 1, ++i) {
      const uint32_t bit = rest & (~rest + 1u);
      const int64_t child = rank + i * blk;
      if ((bit & sel) != 0) {
        if (run_begin >= 0) {
          emit(run_begin, run_end, prefix);
          run_begin = -1;
        }
        self(self, d + 1, avail & ~bit, prefix | bit, child);
      } else {
        if (run_begin < 0) run_begin = child;
        run_end = child + blk;
      }
    }
    if (run_begin >= 0) emit(run_begin, run_end, prefix);
  };
  rec(rec, 0, view_mask, 0u, base);
}

// WalkPrefixClasses over a view's whole canonical key family: its m! fat
// arrangements, or with fat_indexes_only = false (the pruning ablation)
// every arrangement of r = 1..m of its bits, shorter lengths first.
template <typename Emit>
void WalkKeyFamily(uint32_t view_mask, int m, uint32_t sel,
                   bool fat_indexes_only, const Emit& emit) {
  if (fat_indexes_only) {
    WalkPrefixClasses(view_mask, m, m, sel, 0, emit);
    return;
  }
  int64_t offset = 0;
  int64_t arrangements = 1;
  for (int r = 1; r <= m; ++r) {
    arrangements *= m - (r - 1);  // A(m, r)
    WalkPrefixClasses(view_mask, m, r, sel, offset, emit);
    offset += arrangements;
  }
}

// Builds `g` from the provider's lattice and workload. The caller validates
// inputs (dimension limits, lattice-size limits, and option ranges through
// ValidateLatticeGraphOptions) and returns Status errors *before* calling;
// this function assumes a well-formed problem and never fails.
//
// Edge enumeration: queries partitioned into contiguous chunks, one run
// buffer per chunk, spilled into the sink at query boundaries. Each run's
// content depends only on its query, and the sink min-merges labels per
// (view, query, index) slot whatever the flush order, so the finalized
// graph is identical for every thread count.
//
// Index-edge pruning rule (THE one place it lives; both the flat and the
// hierarchical path inherit it from here, and the retained reference
// builders are tested equivalent to it): an index edge is emitted iff its
// class cost beats a plain scan of the same view, cost < scan. Classes at
// cost == scan are useless (the k = 0 view edge already provides that
// cost), and under the paper model c(Q,V,J) = |V| / |E| can never beat a
// scan through an empty selection-only prefix (|E| is then the apex/all-ALL
// size; when that is 1 the cost *equals* a scan and is pruned — the
// hierarchical apex always has exactly one row, which is why the old
// serial hierarchical builder's `if (prefix.empty()) continue` was the
// same rule in disguise). A calibrated model may additionally prune
// classes whose per-node traversal overhead outweighs the row savings.
template <typename Provider>
void BuildLatticeGraph(const Provider& provider,
                       const LatticeGraphOptions& options, QueryViewGraph& g,
                       graph_build_metrics::BuildStats* stats_out = nullptr) {
  OLAPIDX_TRACE_SPAN("graph_build");
  const auto build_start = std::chrono::steady_clock::now();
  graph_build_metrics::BuildStats stats;

  const CostModel& model = options.cost_model != nullptr
                               ? *options.cost_model
                               : PaperCostModel::Instance();
  const uint32_t nv = provider.num_views();
  // Hoisted size lookups: one per view, shared by view space, index space,
  // maintenance, scan costs, and every prefix-class evaluation (a class's
  // prefix denominator is itself a view size).
  std::vector<double> view_size(nv);
  for (uint32_t v = 0; v < nv; ++v) {
    view_size[v] = provider.ViewSizeOf(v);
  }

  provider.InitGraph(g);

  {
    OLAPIDX_TRACE_SPAN("graph_build.structures");
    for (uint32_t v = 0; v < nv; ++v) {
      const double maintenance =
          options.maintenance_per_row > 0.0
              ? options.maintenance_per_row * view_size[v]
              : 0.0;
      provider.AddStructures(g, v, view_size[v], maintenance);
    }
  }

  const double default_cost =
      options.default_query_cost > 0.0
          ? options.default_query_cost
          : model.ScanCost(options.raw_scan_penalty *
                           view_size[provider.BaseView()]);
  const size_t nq = provider.num_queries();
  for (size_t qi = 0; qi < nq; ++qi) {
    provider.AddQuery(g, qi, default_cost);
  }

  std::optional<ThreadPool> local_pool;
  if (options.num_threads > 0) local_pool.emplace(options.num_threads);
  ThreadPool& pool = local_pool ? *local_pool : ThreadPool::Shared();
  const size_t num_chunks = pool.num_threads();
  struct ChunkCounters {
    uint64_t view_pairs = 0;
    uint64_t prefix_classes = 0;
    uint64_t index_edges = 0;
    uint64_t perms_skipped = 0;
    uint64_t max_buffered = 0;  // this shard's spill-buffer high-water
  };
  std::vector<ChunkCounters> counters(num_chunks);
  {
    OLAPIDX_TRACE_SPAN("graph_build.edges");
    pool.ParallelFor(nq, [&](size_t begin, size_t end, size_t chunk) {
      std::vector<EdgeRun> runs;
      ChunkCounters& cc = counters[chunk];
      auto ctx = provider.MakeQueryContext();
      auto flush = [&] {
        cc.max_buffered = std::max<uint64_t>(
            cc.max_buffered, runs.size() * sizeof(EdgeRun));
        g.ConsumeEdgeRuns(runs);  // drains; capacity kept for reuse
      };
      for (size_t qi = begin; qi < end; ++qi) {
        const uint32_t q = static_cast<uint32_t>(qi);
        provider.BeginQuery(ctx, qi);
        provider.ForEachAnsweringView(ctx, [&](uint32_t v) {
          const double scan = model.ScanCost(view_size[v]);
          runs.push_back(EdgeRun{q, v, StructureRef::kNoIndex,
                                 StructureRef::kNoIndex, scan});
          ++cc.view_pairs;
          const uint32_t col = provider.IndexColumnClass(ctx, v);
          if (col == 0) return;  // the view has no indexes
          provider.ForEachIndexCostClass(
              ctx, v, view_size.data(),
              [&](int64_t rb, int64_t re, double prefix_rows) {
                ++cc.prefix_classes;
                const double cost =
                    model.IndexCost(view_size[v], prefix_rows);
                if (cost < scan) {
                  runs.push_back(EdgeRun{q, v, static_cast<int32_t>(rb),
                                         static_cast<int32_t>(re), cost,
                                         col});
                  cc.index_edges += static_cast<uint64_t>(re - rb);
                } else {
                  cc.perms_skipped += static_cast<uint64_t>(re - rb);
                }
              });
        });
        // Spill only between queries: the sink requires a query's runs for
        // a view to arrive in one batch.
        if (runs.size() * sizeof(EdgeRun) >= kSinkWindowBytes) flush();
      }
      if (!runs.empty()) flush();
    });
  }
  uint64_t shard_window_bytes = 0;
  for (const ChunkCounters& cc : counters) {
    shard_window_bytes += cc.max_buffered;
    stats.view_pairs += cc.view_pairs;
    stats.prefix_classes += cc.prefix_classes;
    stats.index_edges += cc.index_edges;
    stats.perms_skipped += cc.perms_skipped;
  }
  stats.enumerate_micros = lattice_build::MicrosSince(build_start);

  const auto finalize_start = std::chrono::steady_clock::now();
  {
    OLAPIDX_TRACE_SPAN("graph_build.finalize");
    g.Finalize();
  }
  stats.finalize_micros = lattice_build::MicrosSince(finalize_start);

  stats.views = nv;
  stats.structures = g.num_structures();
  stats.queries = g.num_queries();
  stats.total_micros = lattice_build::MicrosSince(build_start);
  // While edges stream in, the shards' spill windows live beside the sink
  // state (one window is double-counted: the batch in flight at the sink's
  // peak moment — conservative); the shards free them before Finalize()
  // converts the state into the tables.
  stats.peak_bytes = std::max(g.IngestPeakBytes() + shard_window_bytes,
                              g.FinalizePeakBytes());
  graph_build_metrics::RecordBuild(stats);
  if (stats_out != nullptr) *stats_out = stats;
}

}  // namespace olapidx

#endif  // OLAPIDX_CORE_LATTICE_GRAPH_BUILDER_H_
