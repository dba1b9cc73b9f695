// QueryViewGraph: the bipartite multigraph of Section 5.1 — the input to
// every selection algorithm in this library.
//
//  * Views carry a space cost and a list of indexes (each with its own space
//    cost).
//  * Queries carry a default cost T_i (answering from raw data) and a
//    frequency f_i.
//  * Edges (q, v) are labelled (k, t) — the cost of answering q from view v
//    with v's k-th index; k = kNoIndex means using the view alone.
//
// The algorithms' correctness does not depend on where the costs come from:
// graphs can be built from a cube lattice + cost model (core/cube_graph.h)
// or assembled by hand (Example 5.1, adversarial instances, tests).

#ifndef OLAPIDX_CORE_QUERY_VIEW_GRAPH_H_
#define OLAPIDX_CORE_QUERY_VIEW_GRAPH_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "lattice/index_key.h"

namespace olapidx {

// Identifies a structure (Section 5's term): a view, or one of its indexes.
struct StructureRef {
  uint32_t view = 0;
  // kNoIndex for the view itself, otherwise the index position within the
  // view's index list.
  int32_t index = kNoIndex;

  static constexpr int32_t kNoIndex = -1;

  bool is_view() const { return index == kNoIndex; }

  friend bool operator==(const StructureRef& a, const StructureRef& b) {
    return a.view == b.view && a.index == b.index;
  }
};

// A group of edges (q, v, k, cost) sharing one cost for a contiguous range
// of index positions k ∈ [index_begin, index_end). index_begin == kNoIndex
// denotes the single k = kNoIndex view edge. The fast graph builder emits
// one run per prefix-equivalence class instead of one edge per index
// permutation, so intermediate edge storage is O(#classes), not O(#edges).
struct EdgeRun {
  uint32_t query = 0;
  uint32_t view = 0;
  int32_t index_begin = StructureRef::kNoIndex;
  int32_t index_end = StructureRef::kNoIndex;  // exclusive; ignored for views
  double cost = 0.0;
  // Column-equivalence class id, a small dense integer. Within one view,
  // index runs carrying the same non-zero col_class promise the *same*
  // index-cost column (the cube builder uses selection-mask ∩ view + 1:
  // query cost depends only on that intersection), so the graph stores one
  // prototype column per class instead of one column per query. 0 means
  // "no sharing" — the run only contributes to its own query.
  uint32_t col_class = 0;
};

class QueryViewGraph {
 public:
  static constexpr double kInfiniteCost =
      std::numeric_limits<double>::infinity();

  // Out of line: the edge sink state is an incomplete type here.
  QueryViewGraph();
  QueryViewGraph(QueryViewGraph&&) noexcept;
  QueryViewGraph& operator=(QueryViewGraph&&) noexcept;
  ~QueryViewGraph();

  // ---- Construction (call Finalize() when done) ----

  // Returns the new view's id.
  uint32_t AddView(std::string name, double space);
  // Returns the new index's position within `view`'s index list.
  int32_t AddIndex(uint32_t view, std::string name, double space);
  // Returns the new query's id.
  uint32_t AddQuery(std::string name, double default_cost,
                    double frequency = 1.0);

  // ---- Lazy index registration (fast builder path) ----
  //
  // Registers all of `view`'s indexes at once by their IndexKey handles;
  // names are rendered on demand by index_name() from the attribute-name
  // dictionary (SetNameDictionary) instead of being materialized up front —
  // at n = 8 that is ~110k strings the build never creates. All indexes of
  // a cube view share one space/maintenance figure under the linear cost
  // model. A view uses either AddIndex (eager names) or AddIndexes (lazy),
  // never both.
  void SetNameDictionary(std::vector<std::string> attr_names);
  void AddIndexes(uint32_t view, std::vector<IndexKey> keys,
                  double space_each, double maintenance_each = 0.0);

  // Callback-named variant for lattices whose index handles are not
  // IndexKeys (the hierarchical lattice keys indexes by dimension *order*,
  // not attribute set): registers `count` indexes for `view` by position
  // only; index_name(view, k) defers to the namer installed here, which
  // must render the same name the eager path would have materialized. The
  // namer must be self-contained (capture by value) — it outlives the
  // construction phase and is consulted on demand.
  void SetIndexNamer(std::function<std::string(uint32_t, int32_t)> namer);
  void AddIndexesNamed(uint32_t view, int32_t count, double space_each,
                       double maintenance_each = 0.0);

  // Cost of answering `query` from `view` with no index (k = 0 edge).
  void AddViewEdge(uint32_t query, uint32_t view, double cost);
  // Cost of answering `query` from `view` with its `index`-th index.
  void AddIndexEdge(uint32_t query, uint32_t view, int32_t index,
                    double cost);

  // ---- The edge sink ----
  //
  // Every edge reaches the graph through ConsumeEdgeRuns(), which drains a
  // buffer of runs straight into per-view accumulation state — the future
  // query lists, view-cost columns, and per-class prototype columns — so
  // peak memory during construction is the finished tables plus the
  // in-flight buffers, not every EdgeRun at once. The builders call it
  // from their enumeration shards; the per-edge calls above append to a
  // pending buffer that Finalize() sorts by query and feeds through the
  // same sink, so hand-built edges may arrive in any order. The
  // accumulation is order-independent (duplicate labels min-merge; each
  // class's prototype is owned by its lowest query id and rebuilt if a
  // lower owner arrives), so every flush interleaving finalizes into the
  // same graph.
  //
  // Contract: call after every AddView / AddIndexes* / AddQuery and before
  // Finalize(). Within one call, each view's runs appear in ascending query
  // order, and a query's runs for one view all arrive in a single call
  // (the builders flush only at query boundaries). Thread-safe; drains and
  // clears `runs`, keeping its capacity for reuse.
  void ConsumeEdgeRuns(std::vector<EdgeRun>& runs);
  // High-water marks (bytes) of the sink, valid after Finalize(): while
  // taking in edges (accumulated state plus the batch being consumed), and
  // while Finalize() converts that state into the final tables.
  uint64_t IngestPeakBytes() const { return ingest_peak_bytes_; }
  uint64_t FinalizePeakBytes() const { return finalize_peak_bytes_; }

  // Optional maintenance (refresh) cost charged once when the structure is
  // selected; the algorithms maximize benefit *net* of maintenance. The
  // default of 0 reproduces the paper's space-only model exactly. May be
  // set before or after Finalize(). This is the update-aware extension in
  // the spirit of [G97]'s general framework.
  void SetViewMaintenance(uint32_t view, double cost);
  void SetIndexMaintenance(uint32_t view, int32_t index, double cost);
  double structure_maintenance(StructureRef s) const {
    return s.is_view()
               ? views_[s.view].maintenance
               : views_[s.view]
                     .index_maintenance[static_cast<size_t>(s.index)];
  }

  // Drains the pending per-edge buffer through the sink and converts the
  // sink state into the per-view cost tables. Must be called exactly once,
  // before any algorithm runs.
  void Finalize();
  bool finalized() const { return finalized_; }

  // Content fingerprint of the finalized graph: a 64-bit hash over the
  // view/query/structure counts, per-structure spaces and maintenance
  // costs, query default costs and frequencies, and every finalized cost
  // table, mixed word-at-a-time (FNV-1a over the 64-bit bit patterns, so
  // it is bit-exact across platforms for identical doubles). Two graphs
  // built from the same schema, sizes, workload, and options hash
  // identically, whatever the thread count; any drift in inputs — or in
  // the table layout — changes the fingerprint. Checkpoints are stamped with
  // this value so a resume against a different graph is rejected instead
  // of silently resolving picks against the wrong costs. Requires
  // finalized(); never returns 0 (0 is the "no fingerprint" sentinel in
  // checkpoint files).
  uint64_t Fingerprint() const;

  // Bytes held by the finalized per-view cost tables (prototype columns,
  // position→column maps, view-cost columns, and query lists). The
  // dominant term of the graph's resident footprint.
  uint64_t CostTableBytes() const;

  // ---- Introspection ----

  uint32_t num_views() const { return static_cast<uint32_t>(views_.size()); }
  uint32_t num_queries() const {
    return static_cast<uint32_t>(queries_.size());
  }
  // Total number of structures (views + indexes), the paper's `m`.
  uint32_t num_structures() const { return num_structures_; }

  const std::string& view_name(uint32_t v) const { return views_[v].name; }
  double view_space(uint32_t v) const { return views_[v].space; }
  int32_t num_indexes(uint32_t v) const {
    return static_cast<int32_t>(views_[v].index_spaces.size());
  }
  // Rendered on demand for lazily-registered indexes (hence by value):
  // eager names win, then IndexKey handles, then the installed namer.
  std::string index_name(uint32_t v, int32_t k) const {
    const ViewData& vd = views_[v];
    if (!vd.index_names.empty()) {
      return vd.index_names[static_cast<size_t>(k)];
    }
    if (!vd.lazy_keys.empty()) {
      return vd.lazy_keys[static_cast<size_t>(k)].ToString(attr_names_);
    }
    OLAPIDX_DCHECK(index_namer_ != nullptr);
    return index_namer_(v, k);
  }
  // The key handle of a lazily-registered index (AddIndexes views only).
  const IndexKey& index_key(uint32_t v, int32_t k) const {
    OLAPIDX_DCHECK(static_cast<size_t>(k) < views_[v].lazy_keys.size());
    return views_[v].lazy_keys[static_cast<size_t>(k)];
  }
  double index_space(uint32_t v, int32_t k) const {
    return views_[v].index_spaces[static_cast<size_t>(k)];
  }
  double structure_space(StructureRef s) const {
    return s.is_view() ? view_space(s.view) : index_space(s.view, s.index);
  }
  std::string StructureName(StructureRef s) const {
    return s.is_view() ? view_name(s.view)
                       : index_name(s.view, s.index) + "(" +
                             view_name(s.view) + ")";
  }

  const std::string& query_name(uint32_t q) const { return queries_[q].name; }
  double query_default_cost(uint32_t q) const {
    return queries_[q].default_cost;
  }
  double query_frequency(uint32_t q) const { return queries_[q].frequency; }

  // τ(G, ∅): total cost with nothing materialized.
  double DefaultTotalCost() const;

  // ---- Per-view edge tables (valid after Finalize) ----

  // Queries that have at least one edge to `v`.
  const std::vector<uint32_t>& ViewQueries(uint32_t v) const {
    OLAPIDX_DCHECK(finalized_);
    return views_[v].queries;
  }
  // Inverse of ViewQueries: views that have at least one edge to `q`, in
  // ascending view order. This is the invalidation fan-out the selection
  // algorithms use — when a pick improves q, exactly these views' benefits
  // can change.
  const std::vector<uint32_t>& QueryViews(uint32_t q) const {
    OLAPIDX_DCHECK(finalized_);
    return query_views_[q];
  }
  // Cost of answering ViewQueries(v)[pos] from v alone (kInfiniteCost if
  // there is no k = 0 edge).
  double ViewCostAt(uint32_t v, size_t pos) const {
    return views_[v].view_cost[pos];
  }
  // Cost of answering ViewQueries(v)[pos] from v with index k: one gather
  // from row k of the view's k-major prototype table.
  double IndexCostAt(uint32_t v, int32_t k, size_t pos) const {
    const ViewData& vd = views_[v];
    return vd.col_protos[static_cast<size_t>(k) * vd.num_cols +
                         vd.col_of_pos[pos]];
  }
  // The column layout behind IndexCostAt: position pos reads column
  // col_of_pos(v)[pos] of the view's num_cols(v) columns, and
  // IndexCostRow(v, k)[col] is index k's cost in column col. Positions
  // sharing a column share every index cost.
  size_t num_cols(uint32_t v) const { return views_[v].num_cols; }
  const std::vector<uint32_t>& col_of_pos(uint32_t v) const {
    OLAPIDX_DCHECK(finalized_);
    return views_[v].col_of_pos;
  }
  const double* IndexCostRow(uint32_t v, int32_t k) const {
    const ViewData& vd = views_[v];
    return vd.col_protos.data() + static_cast<size_t>(k) * vd.num_cols;
  }

 private:
  struct ViewData {
    std::string name;
    double space = 0.0;
    double maintenance = 0.0;
    // Eager path: index_names parallel to index_spaces. Lazy path:
    // index_names stays empty and lazy_keys holds the handles instead.
    std::vector<std::string> index_names;
    std::vector<IndexKey> lazy_keys;
    std::vector<double> index_spaces;
    std::vector<double> index_maintenance;
    // Populated by Finalize():
    std::vector<uint32_t> queries;  // queries with any edge to this view
    std::vector<double> view_cost;  // parallel to `queries`
    // One prototype column per distinct column class, stored k-major as
    // col_protos[k * num_cols + col], and the position→column map
    // (parallel to `queries`). Positions without index edges share a final
    // all-+inf column, present only when some position needs it.
    std::vector<double> col_protos;
    std::vector<uint32_t> col_of_pos;
    size_t num_cols = 0;
  };
  struct QueryData {
    std::string name;
    double default_cost = 0.0;
    double frequency = 1.0;
  };
  struct StreamView;
  struct StreamState;

  void ValidateRun(const EdgeRun& run) const;
  void BuildQueryViews();

  std::vector<ViewData> views_;
  std::vector<QueryData> queries_;
  std::vector<std::string> attr_names_;             // for lazy index names
  std::function<std::string(uint32_t, int32_t)> index_namer_;
  std::vector<std::vector<uint32_t>> query_views_;  // built by Finalize()
  std::vector<EdgeRun> pending_;                    // AddViewEdge/AddIndexEdge
  std::unique_ptr<StreamState> stream_;             // freed by Finalize()
  uint64_t ingest_peak_bytes_ = 0;
  uint64_t finalize_peak_bytes_ = 0;
  uint32_t num_structures_ = 0;
  bool finalized_ = false;
};

}  // namespace olapidx

#endif  // OLAPIDX_CORE_QUERY_VIEW_GRAPH_H_
