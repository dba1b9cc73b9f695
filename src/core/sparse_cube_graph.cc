#include "core/sparse_cube_graph.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/lattice_graph_builder.h"
#include "core/pruning_policy.h"
#include "lattice/cube_lattice.h"
#include "lattice/index_key.h"

namespace olapidx {

namespace {

// The pruned-lattice LatticeProvider: view ids are dense in the *retained*
// mask set (ascending mask order, so the base view is the last id when
// nothing is pruned), answering views are resolved through a mask→id
// inverse, and wide views carry workload-derived candidate keys instead of
// the full m! fat family. Cost arithmetic deliberately mirrors
// CubeLatticeProvider division for division: every cost is
// size_by_mask[view] / size_by_mask[prefix] with the same hoisted doubles,
// which is what makes the unpruned sparse build bit-identical to the dense
// one.
struct SparseLatticeProvider {
  const CubeSchema* schema;
  const Workload* workload;  // the *retained* workload
  const SparseCubeGraphOptions* options;
  const CubeLattice* lattice;
  const std::vector<uint32_t>* view_masks;       // sparse id -> mask
  const std::vector<int32_t>* id_of_mask;        // mask -> sparse id or -1
  const std::vector<double>* size_by_mask;       // 2^n view sizes
  // Sparse id -> candidate keys; empty for views within max_fat_dim
  // (those enumerate the fat family on the fly, exactly like the dense
  // provider).
  const std::vector<std::vector<IndexKey>>* candidate_keys;
  uint32_t base_id = 0;
  CubeGraph* out = nullptr;

  struct Ctx {
    const SliceQuery* query = nullptr;
    uint32_t sel = 0;
    AttributeSet full;
  };

  bool IsFat(uint32_t mask) const {
    return std::popcount(mask) <= options->max_fat_dim;
  }

  uint32_t num_views() const {
    return static_cast<uint32_t>(view_masks->size());
  }
  uint32_t BaseView() const { return base_id; }
  double ViewSizeOf(uint32_t v) const {
    return (*size_by_mask)[(*view_masks)[v]];
  }

  void InitGraph(QueryViewGraph& g) const {
    g.SetNameDictionary(schema->names());
  }

  void AddStructures(QueryViewGraph& g, uint32_t v, double size,
                     double maintenance) const {
    const uint32_t mask = (*view_masks)[v];
    AttributeSet attrs = AttributeSet::FromMask(mask);
    uint32_t gv = g.AddView(attrs.ToString(schema->names()), size);
    OLAPIDX_CHECK(gv == v);
    out->view_attrs.push_back(attrs);
    if (maintenance > 0.0) g.SetViewMaintenance(gv, maintenance);
    std::vector<IndexKey> keys = IsFat(mask) ? lattice->FatIndexes(mask)
                                             : (*candidate_keys)[v];
    g.AddIndexes(gv, keys, size, maintenance);
    out->index_keys.push_back(std::move(keys));
  }

  size_t num_queries() const { return workload->queries().size(); }

  void AddQuery(QueryViewGraph& g, size_t qi, double default_cost) const {
    const WeightedQuery& wq = workload->queries()[qi];
    g.AddQuery(wq.query.ToString(schema->names()), default_cost,
               wq.frequency);
    out->queries.push_back(wq.query);
  }

  Ctx MakeQueryContext() const {
    Ctx ctx;
    ctx.full = AttributeSet::Full(schema->num_dimensions());
    return ctx;
  }

  void BeginQuery(Ctx& ctx, size_t qi) const {
    ctx.query = &workload->queries()[qi].query;
    ctx.sel = ctx.query->selection().mask();
  }

  template <typename Visit>
  void ForEachAnsweringView(Ctx& ctx, Visit&& visit) const {
    const AttributeSet need = ctx.query->AllAttributes();
    const int free_bits = ctx.full.Minus(need).size();
    // Both branches emit ascending sparse ids (view_masks is sorted);
    // pick the cheaper enumeration. Wide queries have few supersets, so
    // the submask walk wins; narrow queries fall back to one subset test
    // per retained view.
    if ((uint64_t{1} << free_bits) <= view_masks->size()) {
      for (AttributeSet cset : need.SupersetsWithin(ctx.full)) {
        const int32_t id = (*id_of_mask)[cset.mask()];
        if (id >= 0) visit(static_cast<uint32_t>(id));
      }
    } else {
      const uint32_t need_mask = need.mask();
      for (uint32_t v = 0; v < view_masks->size(); ++v) {
        if ((need_mask & ~(*view_masks)[v]) == 0) visit(v);
      }
    }
  }

  uint32_t IndexColumnClass(const Ctx& ctx, uint32_t v) const {
    const uint32_t mask = (*view_masks)[v];
    if (mask == 0) return 0;  // the apex view has no indexes
    if (!IsFat(mask) && (*candidate_keys)[v].empty()) return 0;
    // As in the dense provider: a query's index costs from this view
    // depend only on selection ∩ view (every key is a subset of the view's
    // attributes), so queries agreeing on the intersection share columns.
    return (ctx.sel & mask) + 1;
  }

  template <typename Emit>
  void ForEachIndexCostClass(const Ctx& ctx, uint32_t v,
                             const double* /*view_size*/, Emit&& emit) const {
    const uint32_t mask = (*view_masks)[v];
    const double* sz = size_by_mask->data();
    if (IsFat(mask)) {
      const int m = std::popcount(mask);
      WalkPrefixClasses(mask, m, m, ctx.sel, 0,
                        [&](int64_t rb, int64_t re, uint32_t prefix) {
                          emit(rb, re, sz[prefix]);
                        });
      return;
    }
    const std::vector<IndexKey>& keys = (*candidate_keys)[v];
    for (size_t k = 0; k < keys.size(); ++k) {
      const uint32_t prefix =
          keys[k].LongestSelectionPrefix(ctx.query->selection()).mask();
      emit(static_cast<int64_t>(k), static_cast<int64_t>(k) + 1,
           sz[prefix]);
    }
  }
};

}  // namespace

StatusOr<SparseCubeGraph> TryBuildSparseCubeGraph(
    const CubeSchema& schema, const ViewSizes& sizes,
    const Workload& workload, const SparseCubeGraphOptions& options) {
  OLAPIDX_CHECK(sizes.num_dimensions() == schema.num_dimensions());
  OLAPIDX_CHECK(sizes.Complete());
  const int n = schema.num_dimensions();
  if (n > kMaxDimensions) {
    return Status::InvalidArgument(
        "sparse cube graphs support at most " +
        std::to_string(kMaxDimensions) + " dimensions (got n = " +
        std::to_string(n) + ")");
  }
  if (options.max_fat_dim < 0 || options.max_fat_dim > 8) {
    return Status::InvalidArgument(
        "max_fat_dim must be in [0, 8] (got " +
        std::to_string(options.max_fat_dim) + ")");
  }
  if (!(options.query_mass > 0.0) || options.query_mass > 1.0) {
    return Status::InvalidArgument("query_mass must be in (0, 1]");
  }
  if (options.raw_scan_penalty < 1.0) {
    return Status::InvalidArgument("raw_scan_penalty must be >= 1");
  }

  SparseCubeGraph result;
  SparseBuildStats& stats = result.stats;
  stats.workload_queries = workload.size();
  stats.total_mass = workload.TotalFrequency();

  // --- 1. Query pruning (policy layer): hottest-first order, mass
  // threshold, top-k cap.
  std::vector<double> frequency;
  frequency.reserve(workload.size());
  for (const WeightedQuery& wq : workload.queries()) {
    frequency.push_back(wq.frequency);
  }
  QueryPruneResult pruned = PruneQueriesByMass(
      frequency, options.top_queries, options.query_mass);
  Workload retained;
  for (uint32_t qi : pruned.retained) {
    retained.Add(workload[qi].query, workload[qi].frequency);
  }
  stats.retained_mass = pruned.retained_mass;
  stats.dropped_mass = stats.total_mass - stats.retained_mass;
  stats.retained_queries = retained.size();

  // --- 2. View pruning (policy layer): the base view plus every retained
  // query's superset cone, hottest queries first so the soft cap favors
  // the hot region of the lattice. Minimal views (A ∪ B) are exempt from
  // the cap — without them a query's own smallest view would be missing
  // while *larger* ones survive.
  const AttributeSet full = AttributeSet::Full(n);
  std::vector<uint32_t> hot_order(retained.size());
  std::iota(hot_order.begin(), hot_order.end(), 0u);
  std::stable_sort(hot_order.begin(), hot_order.end(),
                   [&](uint32_t a, uint32_t b) {
                     return retained[a].frequency > retained[b].frequency;
                   });
  ViewRetentionResult retention = RetainSupersetViews(
      uint64_t{1} << n, full.mask(), hot_order, options.max_views,
      [&](uint32_t qi) {
        return retained[qi].query.AllAttributes().mask();
      },
      [&](uint32_t qi, auto&& visit) {
        for (AttributeSet cset :
             retained[qi].query.AllAttributes().SupersetsWithin(full)) {
          if (!visit(cset.mask())) break;
        }
      });
  std::vector<uint32_t> view_masks(retention.view_ids.begin(),
                                   retention.view_ids.end());
  const std::vector<int32_t>& id_of_mask = retention.id_of;
  stats.retained_views = view_masks.size();
  stats.view_cap_hit = retention.cap_hit;
  stats.views_dropped = retention.views_dropped;
  stats.views_dropped_truncated = retention.views_dropped_truncated;
  const uint32_t base_id =
      static_cast<uint32_t>(id_of_mask[full.mask()]);

  // --- 3. Index families for wide views (policy layer): one fat key per
  // distinct selection ∩ view over the retained answerable queries,
  // selection attributes leading (ascending), remaining view attributes
  // trailing (ascending). Such a key serves its whole class at the best
  // possible prefix; keys from different classes may collide, so dedupe
  // the final sequences.
  CubeLattice lattice(schema);
  std::vector<std::vector<IndexKey>> candidate_keys(view_masks.size());
  std::vector<std::pair<uint32_t, uint32_t>> query_masks;  // (A∪B, B)
  query_masks.reserve(retained.size());
  for (const WeightedQuery& wq : retained.queries()) {
    query_masks.emplace_back(wq.query.AllAttributes().mask(),
                             wq.query.selection().mask());
  }
  for (uint32_t v = 0; v < view_masks.size(); ++v) {
    const uint32_t mask = view_masks[v];
    if (std::popcount(mask) <= options.max_fat_dim) {
      ++stats.fat_views;
      continue;
    }
    ++stats.candidate_views;
    const std::vector<uint32_t> classes = CollectCandidateClasses(
        query_masks.size(), [&](size_t q) -> uint32_t {
          const auto& [need, sel] = query_masks[q];
          if ((need & ~mask) != 0) return 0;  // not answerable here
          return sel & mask;
        });
    std::vector<IndexKey>& keys = candidate_keys[v];
    keys.reserve(classes.size());
    for (uint32_t p : classes) {
      keys.emplace_back(CandidateKeyOrder(p, mask));
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    stats.candidate_indexes += keys.size();
  }

  // --- 4. Sizes hoisted per mask so every cost division uses the same
  // doubles as the dense builder.
  std::vector<double> size_by_mask(size_t{1} << n);
  for (uint32_t mask = 0; mask < size_by_mask.size(); ++mask) {
    size_by_mask[mask] = sizes.SizeOf(AttributeSet::FromMask(mask));
  }

  CubeGraph& out = result.cube;
  out.view_attrs.reserve(view_masks.size());
  out.index_keys.reserve(view_masks.size());
  SparseLatticeProvider provider{&schema,       &retained,
                                 &options,      &lattice,
                                 &view_masks,   &id_of_mask,
                                 &size_by_mask, &candidate_keys,
                                 base_id,       &out};
  LatticeGraphOptions build;
  build.default_query_cost = options.default_query_cost;
  build.raw_scan_penalty = options.raw_scan_penalty;
  build.maintenance_per_row = options.maintenance_per_row;
  build.num_threads = options.num_threads;
  build.cost_model = options.cost_model.get();
  BuildLatticeGraph(provider, build, out.graph, &stats.build);

  graph_build_metrics::SparseStats metric;
  metric.workload_queries = stats.workload_queries;
  metric.retained_queries = stats.retained_queries;
  metric.retained_mass_permille =
      stats.total_mass > 0.0
          ? static_cast<uint64_t>(1000.0 * stats.retained_mass /
                                  stats.total_mass)
          : 1000;
  metric.retained_views = stats.retained_views;
  metric.views_dropped = stats.views_dropped;
  metric.candidate_views = stats.candidate_views;
  metric.candidate_indexes = stats.candidate_indexes;
  graph_build_metrics::RecordSparseBuild(metric);
  return result;
}

}  // namespace olapidx
