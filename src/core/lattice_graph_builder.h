// The generic, provider-parameterized query-view graph builder — the single
// fast construction path shared by the flat cube (core/sparse_cube_graph.cc)
// and the hierarchical lattice (hierarchy/hierarchical_graph.cc). The paper's
// Section 5 algorithms are lattice-agnostic, and so is this builder: it
// owns the phase sequence (gather each view's queries → structures →
// queries → view-major fill → Finalize), the hoisted view-size table, the
// index-edge pruning rule, and the graph_build.* instrumentation, while a
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
//   Ctx      MakeContext() const;  // per-worker scratch, any type
//   void     BeginQuery(Ctx& ctx, size_t qi) const;
//   uint64_t ForEachAnsweringView(Ctx& ctx, Visit&& visit) const;
//       // visit(uint32_t v), ids ascending, for every view that can answer
//       // the query of the last BeginQuery (the gather); returns the
//       // lattice positions the walk enumerated to find them
//   void     BeginView(Ctx& ctx, uint32_t v) const;
//       // the view's own state for the two calls below, which the fill
//       // makes after a BeginView(v) and a BeginQuery
//   uint32_t IndexColumnClass(const Ctx& ctx, uint32_t v) const;
//       // 0 iff v has no indexes; otherwise a non-zero id such that
//       // queries sharing it have bit-identical index-cost columns at v, so
//       // only the first (lowest) query of a class is costed and the graph
//       // stores one prototype column per class instead of one per query
//   void     ForEachIndexCostClass(Ctx& ctx, uint32_t v, Emit&& emit) const;
//       // emit(rank_begin, rank_end, prefix_rows): one call per
//       // prefix-equivalence class of v's index family, covering the
//       // contiguous rank range [rank_begin, rank_end) of index positions
//       // whose longest selection-only key prefix has `prefix_rows`
//       // distinct values (the paper's |E|; the builder turns it into a
//       // cost through the CostModel seam)

#ifndef OLAPIDX_CORE_LATTICE_GRAPH_BUILDER_H_
#define OLAPIDX_CORE_LATTICE_GRAPH_BUILDER_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <optional>
#include <span>
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
  // Threads for the table fill. 0 uses the shared pool; any value > 0
  // builds with a dedicated pool of that size. The resulting graph is
  // identical for every thread count.
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

// Each view's queries, view-major: view v's positions are
// queries[begin[v], begin[v + 1]), ascending graph query ids.
// GatherViewQueries builds it; BuildLatticeGraph fills each view's tables
// from it, and the flat pruned plan reads its wide views' selection
// classes from it.
struct ViewQueryLists {
  std::vector<uint32_t> begin;  // num_views + 1 offsets
  std::vector<uint32_t> queries;

  std::span<const uint32_t> of(uint32_t v) const {
    return std::span<const uint32_t>(queries).subspan(
        begin[v], begin[v + 1] - begin[v]);
  }
  uint64_t Bytes() const {
    return (begin.size() + queries.size()) * sizeof(uint32_t);
  }
};

// One cone walk per query (the provider's ForEachAnsweringView), then a
// counting sort of the (query, view) pairs by view. Queries are walked in
// ascending order, so each view's list comes out ascending. on_walk(qi,
// positions) is told how many lattice positions query qi's walk
// enumerated.
template <typename Provider, typename OnWalk>
ViewQueryLists GatherViewQueries(const Provider& provider, OnWalk&& on_walk) {
  OLAPIDX_TRACE_SPAN("graph_build.gather");
  const uint32_t nv = provider.num_views();
  const size_t nq = provider.num_queries();
  ViewQueryLists lists;
  lists.begin.assign(size_t{nv} + 1, 0);
  // Query-major first: every query's views, back to back.
  std::vector<uint32_t> views;
  std::vector<size_t> query_end(nq);
  auto ctx = provider.MakeContext();
  for (size_t qi = 0; qi < nq; ++qi) {
    provider.BeginQuery(ctx, qi);
    on_walk(qi, provider.ForEachAnsweringView(ctx, [&](uint32_t v) {
      views.push_back(v);
      ++lists.begin[v + 1];
    }));
    query_end[qi] = views.size();
  }
  OLAPIDX_CHECK(views.size() <= UINT32_MAX && nq <= UINT32_MAX);
  std::partial_sum(lists.begin.begin(), lists.begin.end(),
                   lists.begin.begin());
  // Scatter with begin[v] as v's cursor, which leaves it at v's end, the
  // next view's begin: shifting the offsets by one restores them.
  lists.queries.resize(views.size());
  for (size_t qi = 0, i = 0; qi < nq; ++qi) {
    for (; i < query_end[qi]; ++i) {
      lists.queries[lists.begin[views[i]]++] = static_cast<uint32_t>(qi);
    }
  }
  std::copy_backward(lists.begin.begin(), lists.begin.end() - 1,
                     lists.begin.end());
  lists.begin[0] = 0;
  return lists;
}

namespace lattice_build {

// A fill's work counters, one set per chunk.
struct FillCounters {
  uint64_t view_pairs = 0;
  uint64_t prefix_classes = 0;
  uint64_t index_edges = 0;
  uint64_t perms_skipped = 0;
  uint64_t scratch_bytes = 0;  // the chunk's scratch high-water
};

// A chunk's scratch for the fill: the provider context, the block's
// tables before layout, and the current view's column classes in order
// of first appearance, with what costing each one found.
template <typename Ctx>
struct FillScratch {
  struct ClassCost {
    uint32_t slot;  // TableScratch::kNoSlot when every edge was pruned
    uint64_t index_edges;
    uint64_t perms_skipped;
  };
  Ctx ctx;
  TableScratch tables;
  std::vector<uint32_t> classes;
  std::vector<ClassCost> costs;

  uint64_t CapacityBytes() const {
    return tables.CapacityBytes() + classes.capacity() * sizeof(uint32_t) +
           costs.capacity() * sizeof(ClassCost);
  }
};

// Fills views [first, end) into s.tables, in two passes. The first finds
// each position's column class, numbered per view in order of first
// appearance, which bounds the block's prototype cells, so the scratch is
// reserved once at that bound. The second costs each class at its first
// query, the lowest, and gives the class's later queries the same slot;
// a class whose every index edge is pruned reads the all-+inf column.
template <typename Provider, typename Ctx>
void FillBlock(const Provider& provider, const ViewQueryLists& lists,
               const CostModel& model, const std::vector<double>& view_size,
               const QueryViewGraph& g, uint32_t first, uint32_t end,
               FillScratch<Ctx>& s, FillCounters& cc) {
  constexpr uint32_t kNoSlot = TableScratch::kNoSlot;
  uint64_t cells = 0;
  for (uint32_t v = first; v < end; ++v) {
    provider.BeginView(s.ctx, v);
    s.classes.clear();
    for (uint32_t q : lists.of(v)) {
      provider.BeginQuery(s.ctx, q);
      const uint32_t col_class = provider.IndexColumnClass(s.ctx, v);
      if (col_class == 0) {  // the view has no indexes
        s.tables.slot.push_back(kNoSlot);
        continue;
      }
      // Distinct classes per view are few; a linear probe beats a hash
      // map here.
      const auto it = std::find(s.classes.begin(), s.classes.end(), col_class);
      s.tables.slot.push_back(static_cast<uint32_t>(it - s.classes.begin()));
      if (it == s.classes.end()) s.classes.push_back(col_class);
    }
    cells += s.classes.size() * static_cast<uint64_t>(g.num_indexes(v));
  }
  s.tables.protos.reserve(cells);

  uint32_t* slot = s.tables.slot.data();
  for (uint32_t v = first; v < end; ++v) {
    provider.BeginView(s.ctx, v);
    const double size = view_size[v];
    const double scan = model.ScanCost(size);
    const auto ni = static_cast<size_t>(g.num_indexes(v));
    const std::span<const uint32_t> queries = lists.of(v);
    uint32_t nslots = 0;
    s.costs.clear();
    for (uint32_t q : queries) {
      s.tables.queries.push_back(q);
      s.tables.view_cost.push_back(scan);
      uint32_t& pos_slot = *slot++;
      if (pos_slot == kNoSlot) continue;
      if (pos_slot == s.costs.size()) {
        // The class's first query: cost its column.
        typename FillScratch<Ctx>::ClassCost c{kNoSlot, 0, 0};
        const size_t base = s.tables.protos.size();
        s.tables.protos.resize(base + ni, QueryViewGraph::kInfiniteCost);
        double* column = s.tables.protos.data() + base;
        provider.BeginQuery(s.ctx, q);
        provider.ForEachIndexCostClass(
            s.ctx, v, [&](int64_t rb, int64_t re, double prefix_rows) {
              ++cc.prefix_classes;
              const double cost = model.IndexCost(size, prefix_rows);
              if (cost < scan) {
                std::fill(column + rb, column + re, cost);
                c.index_edges += static_cast<uint64_t>(re - rb);
              } else {
                c.perms_skipped += static_cast<uint64_t>(re - rb);
              }
            });
        if (c.index_edges > 0) {
          c.slot = nslots++;
        } else {
          s.tables.protos.resize(base);
        }
        s.costs.push_back(c);
      }
      const typename FillScratch<Ctx>::ClassCost& c = s.costs[pos_slot];
      pos_slot = c.slot;
      cc.index_edges += c.index_edges;
      cc.perms_skipped += c.perms_skipped;
    }
    cc.view_pairs += queries.size();
    s.tables.positions.push_back(static_cast<uint32_t>(queries.size()));
    s.tables.num_slots.push_back(nslots);
  }
}

}  // namespace lattice_build

// Builds `g` from the provider's lattice and workload, with `lists` from
// GatherViewQueries(provider). The caller validates inputs (dimension
// limits, lattice-size limits, and option ranges through
// ValidateLatticeGraphOptions) and returns Status errors *before* calling;
// this function assumes a well-formed problem and never fails.
//
// The fill is view-major: each view's tables are written once, from its
// own query list, straight into the arrays of its table block. Blocks are
// cut in view order and handed out on the pool heaviest first, one at a
// time. A view's tables depend only on its queries, so the graph is
// identical for every thread count. Within a view, a query whose column
// class an earlier (lower) query already costed shares that query's
// column, so each class is costed once per view, by its lowest query: the
// owner whose column the hand-built path keeps too.
//
// Index-edge pruning rule (THE one place it lives; both the flat and the
// hierarchical path inherit it from here, and the retained reference
// builders are tested equivalent to it): an index edge is kept iff its
// class cost beats a plain scan of the same view, cost < scan. Classes at
// cost == scan are useless (the k = 0 view edge already provides that
// cost), and under the paper model c(Q,V,J) = |V| / |E| can never beat a
// scan through an empty selection-only prefix (|E| is then the apex/all-ALL
// size; when that is 1 the cost *equals* a scan and is pruned — the
// hierarchical apex always has exactly one row, which is why the old
// serial hierarchical builder's `if (prefix.empty()) continue` was the
// same rule in disguise). A calibrated model may additionally prune
// classes whose per-node traversal overhead outweighs the row savings. A
// column class whose every index edge is pruned reads the view's all-+inf
// column.
template <typename Provider>
void BuildLatticeGraph(const Provider& provider, const ViewQueryLists& lists,
                       const LatticeGraphOptions& options, QueryViewGraph& g,
                       graph_build_metrics::BuildStats* stats_out = nullptr) {
  OLAPIDX_TRACE_SPAN("graph_build");
  const auto build_start = std::chrono::steady_clock::now();
  graph_build_metrics::BuildStats stats;

  const CostModel& model = options.cost_model != nullptr
                               ? *options.cost_model
                               : PaperCostModel::Instance();
  const uint32_t nv = provider.num_views();
  OLAPIDX_CHECK(lists.begin.size() == size_t{nv} + 1);
  // Hoisted size lookups: one per view, shared by view space, index space,
  // maintenance and scan costs.
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

  // Blocks of consecutive views, cut by the graph. A block's estimate
  // bounds its tables from above, so its scratch stays near the cut; it is
  // also the block's weight for the schedule.
  const QueryViewGraph::TableBlockCut cut = g.StartTables(lists.begin);
  const size_t num_blocks = cut.bytes.size();

  std::optional<ThreadPool> local_pool;
  if (options.num_threads > 0) local_pool.emplace(options.num_threads);
  ThreadPool& pool = local_pool ? *local_pool : ThreadPool::Shared();
  const size_t num_chunks = pool.num_threads();
  // Heaviest first, so no chunk is left with the tail of heavy views while
  // the others idle: the dense graph's base view, the heaviest by far, has
  // the last id. A one-thread pool keeps view order.
  std::vector<uint32_t> order(num_blocks);
  std::iota(order.begin(), order.end(), 0u);
  if (num_chunks > 1) {
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      if (cut.bytes[a] != cut.bytes[b]) return cut.bytes[a] > cut.bytes[b];
      return a < b;
    });
  }
  std::vector<lattice_build::FillCounters> counters(num_chunks);
  {
    OLAPIDX_TRACE_SPAN("graph_build.fill");
    std::atomic<size_t> next{0};
    pool.ParallelFor(std::min(num_chunks, num_blocks), [&](size_t, size_t,
                                                          size_t chunk) {
      // Counted locally: the chunks' slots share cache lines.
      lattice_build::FillCounters cc;
      lattice_build::FillScratch<decltype(provider.MakeContext())> scratch{
          provider.MakeContext(), {}, {}, {}};
      for (size_t i = next.fetch_add(1, std::memory_order_relaxed);
           i < num_blocks; i = next.fetch_add(1, std::memory_order_relaxed)) {
        const uint32_t b = order[i];
        lattice_build::FillBlock(provider, lists, model, view_size, g,
                                 cut.first[b], cut.first[b + 1], scratch, cc);
        cc.scratch_bytes = std::max(cc.scratch_bytes, scratch.CapacityBytes());
        g.WriteTableBlock(b, cut.first[b], scratch.tables);
      }
      counters[chunk] = cc;
    });
  }
  uint64_t scratch_bytes = 0;
  for (const lattice_build::FillCounters& cc : counters) {
    scratch_bytes += cc.scratch_bytes;
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
  // An upper bound on what the build holds at once: the query lists, every
  // table, and each chunk's scratch at its high-water, released or not.
  // The gather's transient query-major pairs take fewer bytes than the
  // tables' positions alone.
  stats.peak_bytes = lists.Bytes() + g.CostTableBytes() + scratch_bytes;
  graph_build_metrics::RecordBuild(stats);
  if (stats_out != nullptr) *stats_out = stats;
}

}  // namespace olapidx

#endif  // OLAPIDX_CORE_LATTICE_GRAPH_BUILDER_H_
