#include "core/sparse_cube_graph.h"

#include <bit>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/lattice_graph_builder.h"
#include "core/pruning_policy.h"
#include "lattice/cube_lattice.h"
#include "lattice/index_key.h"

namespace olapidx {

namespace {

// Calls visit(id), ids ascending, for every view of `views` that answers a
// query needing `need`: the retained supersets of `need` within `full`.
// Picks the cheaper enumeration: wide needs have few supersets, so the
// submask walk wins; narrow ones fall back to one subset test per retained
// view. Returns the positions enumerated.
template <typename Visit>
uint64_t ForEachRetainedSuperset(AttributeSet need, AttributeSet full,
                                 const ViewRetentionResult& views,
                                 Visit&& visit) {
  const std::vector<uint64_t>& view_ids = views.view_ids;
  const uint64_t walk = uint64_t{1} << full.Minus(need).size();
  if (walk <= view_ids.size()) {
    for (AttributeSet cset : need.SupersetsWithin(full)) {
      const int32_t id = views.id_of[cset.mask()];
      if (id >= 0) visit(static_cast<uint32_t>(id));
    }
    return walk;
  }
  const uint64_t need_mask = need.mask();
  for (uint32_t v = 0; v < view_ids.size(); ++v) {
    if ((need_mask & ~view_ids[v]) == 0) visit(v);
  }
  return view_ids.size();
}

// The flat-cube LatticeProvider, for every build plan. Under the identity
// plan (plan == nullptr) graph view ids are the attribute masks; under a
// pruned plan they are dense in the retained mask set (ascending mask
// order) and answering views resolve through its mask → id inverse. A view
// with at most max_fat_dim attributes carries the canonical family (fat,
// or every ordered subset for the ablation), a wider one its
// workload-derived candidate keys, which the pruned plan gathers in
// `families` before the build and AddStructures hands to the graph, the
// keys' one owner; edge enumeration reads them back from the graph.
// Index costs are the paper's c(Q,V,J) = |C| / |E|, E the maximal
// selection-only key prefix: every cost divides two entries of
// size_by_mask, which is why a pruned graph's costs equal the identity
// graph's bit for bit.
struct FlatPlanProvider {
  const CubeSchema* schema;
  const CubeLattice* lattice;
  const Workload* workload;  // the input workload
  const PrunedPlan* plan;    // null: the identity plan
  const std::vector<double>* size_by_mask;  // 2^n view sizes
  bool fat_indexes_only;
  int max_fat_dim;
  uint32_t base_id;
  CubeGraph* out;
  // The pruned plan's wide-view families (null: the identity plan). Each
  // is moved out, and freed, as its view registers.
  std::vector<std::vector<IndexKey>>* families;

  struct Ctx {
    const SliceQuery* query = nullptr;
    uint32_t sel = 0;
    AttributeSet full;
  };

  uint32_t MaskOf(uint32_t v) const {
    return plan == nullptr ? v
                           : static_cast<uint32_t>(plan->views.view_ids[v]);
  }
  bool IsCanonical(uint32_t mask) const {
    return std::popcount(mask) <= max_fat_dim;
  }
  const WeightedQuery& QueryAt(size_t qi) const {
    return (*workload)[plan == nullptr ? qi : plan->queries[qi]];
  }

  uint32_t num_views() const {
    return plan == nullptr
               ? lattice->num_views()
               : static_cast<uint32_t>(plan->views.view_ids.size());
  }
  uint32_t BaseView() const { return base_id; }
  double ViewSizeOf(uint32_t v) const { return (*size_by_mask)[MaskOf(v)]; }

  void InitGraph(QueryViewGraph& g) const {
    g.SetNameDictionary(schema->names());
  }

  void AddStructures(QueryViewGraph& g, uint32_t v, double size,
                     double maintenance) const {
    const uint32_t mask = MaskOf(v);
    AttributeSet attrs = AttributeSet::FromMask(mask);
    uint32_t gv = g.AddView(attrs.ToString(schema->names()), size);
    OLAPIDX_CHECK(gv == v);
    out->view_attrs.push_back(attrs);
    if (maintenance > 0.0) g.SetViewMaintenance(gv, maintenance);
    std::vector<IndexKey> keys;
    if (IsCanonical(mask)) {
      keys = fat_indexes_only ? lattice->FatIndexes(mask)
                              : lattice->AllIndexes(mask);
    } else {
      keys = std::move((*families)[v]);
    }
    g.AddIndexes(gv, keys, size, maintenance);
  }

  size_t num_queries() const {
    return plan == nullptr ? workload->size() : plan->queries.size();
  }

  void AddQuery(QueryViewGraph& g, size_t qi, double default_cost) const {
    const WeightedQuery& wq = QueryAt(qi);
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
    ctx.query = &QueryAt(qi).query;
    ctx.sel = ctx.query->selection().mask();
  }

  template <typename Visit>
  void ForEachAnsweringView(Ctx& ctx, Visit&& visit) const {
    const AttributeSet need = ctx.query->AllAttributes();
    if (plan == nullptr) {
      for (AttributeSet cset : need.SupersetsWithin(ctx.full)) {
        visit(cset.mask());
      }
      return;
    }
    ForEachRetainedSuperset(need, ctx.full, plan->views, visit);
  }

  uint32_t IndexColumnClass(const Ctx& ctx, uint32_t v) const {
    const uint32_t mask = MaskOf(v);
    if (mask == 0) return 0;  // the apex view has no indexes
    if (!IsCanonical(mask) && out->graph.num_indexes(v) == 0) return 0;
    // A query's index costs from view C depend only on B ∩ C (every prefix
    // E is a subset of C), so queries agreeing on that intersection share
    // one cost column; tag runs with it so the graph stores each distinct
    // column once per view.
    return (ctx.sel & mask) + 1;
  }

  template <typename Emit>
  void ForEachIndexCostClass(const Ctx& ctx, uint32_t v,
                             const double* /*view_size*/, Emit&& emit) const {
    const uint32_t mask = MaskOf(v);
    const double* sz = size_by_mask->data();
    if (IsCanonical(mask)) {
      // |E| rows; the builder applies the model.
      WalkKeyFamily(mask, std::popcount(mask), ctx.sel, fat_indexes_only,
                    [&](int64_t rb, int64_t re, uint32_t prefix) {
                      emit(rb, re, sz[prefix]);
                    });
      return;
    }
    const QueryViewGraph& g = out->graph;
    for (int32_t k = 0; k < g.num_indexes(v); ++k) {
      const uint32_t prefix =
          g.index_key(v, k).LongestSelectionPrefix(ctx.query->selection())
              .mask();
      emit(k, int64_t{k} + 1, sz[prefix]);
    }
  }
};

// The candidate families of the pruned plan's views wider than
// max_fat_dim, one slot per retained view (fat views' slots stay empty:
// the provider enumerates their keys itself). A query answerable at view
// V has selection ∩ V = B, its whole selection, so each retained query
// with a selection adds B to every wide view of its cone: one cone walk
// per query gathers every view's classes, and the views × queries pairs
// are never enumerated.
// Also counts the fat and candidate views.
std::vector<std::vector<IndexKey>> BuildCandidateFamilies(
    const PrunedPlan& plan, const Workload& workload, AttributeSet full,
    int max_fat_dim, SparseBuildStats& stats) {
  const std::vector<uint64_t>& view_ids = plan.views.view_ids;
  const auto nv = static_cast<uint32_t>(view_ids.size());
  std::vector<std::vector<IndexKey>> index_keys(nv);
  auto is_wide = [&](uint32_t v) {
    return std::popcount(view_ids[v]) > max_fat_dim;
  };
  for (uint32_t v = 0; v < nv; ++v) {
    if (is_wide(v)) {
      ++stats.candidate_views;
    } else {
      ++stats.fat_views;
    }
  }
  if (stats.candidate_views == 0) return index_keys;
  struct ViewClass {
    uint32_t view;
    uint32_t cls;
  };
  std::vector<ViewClass> found;
  for (uint32_t qi : plan.queries) {
    const SliceQuery& query = workload[qi].query;
    const uint32_t sel = query.selection().mask();
    if (sel == 0) continue;  // no class to add anywhere
    stats.family_cone_visits += ForEachRetainedSuperset(
        query.AllAttributes(), full, plan.views, [&](uint32_t v) {
          if (is_wide(v)) found.push_back(ViewClass{v, sel});
        });
  }
  // Counting sort by view: classes[begin[v], begin[v + 1]) are v's.
  std::vector<uint32_t> begin(nv + 1, 0);
  for (const ViewClass& f : found) ++begin[f.view + 1];
  std::partial_sum(begin.begin(), begin.end(), begin.begin());
  std::vector<uint32_t> classes(found.size());
  std::vector<uint32_t> next(begin.begin(), begin.end() - 1);
  for (const ViewClass& f : found) classes[next[f.view]++] = f.cls;
  for (uint32_t v = 0; v < nv; ++v) {
    if (begin[v] == begin[v + 1]) continue;
    const auto mask = static_cast<uint32_t>(view_ids[v]);
    index_keys[v] = CandidateFamily(
        std::span(classes).subspan(begin[v], begin[v + 1] - begin[v]),
        [mask](uint32_t prefix) { return CandidateKey(prefix, mask); });
    stats.candidate_indexes += index_keys[v].size();
  }
  return index_keys;
}

// The flat build pipeline behind TryBuildCubeGraph and
// TryBuildSparseCubeGraph, which check their own limits first. A null
// `pruning` is the identity plan: every query in input order, every view
// with graph id = mask, and the canonical family of `fat_indexes_only` on
// every view; it leaves the result's stats unset. Otherwise the pruned plan
// of `pruning` (fat families only).
StatusOr<SparseCubeGraph> BuildFlatGraph(
    const CubeSchema& schema, const ViewSizes& sizes,
    const Workload& workload, const LatticeGraphOptions& build,
    bool fat_indexes_only, const SparseCubeGraphOptions* pruning) {
  OLAPIDX_CHECK(sizes.num_dimensions() == schema.num_dimensions());
  OLAPIDX_CHECK(sizes.Complete());
  if (Status s = ValidateLatticeGraphOptions(build); !s.ok()) return s;
  const int n = schema.num_dimensions();
  const AttributeSet full = AttributeSet::Full(n);
  const CubeLattice lattice(schema);
  // Sizes hoisted per mask: view and prefix sizes are the same doubles
  // whichever views the plan keeps.
  std::vector<double> size_by_mask(size_t{1} << n);
  for (uint32_t mask = 0; mask < size_by_mask.size(); ++mask) {
    size_by_mask[mask] = sizes.SizeOf(AttributeSet::FromMask(mask));
  }

  SparseCubeGraph result;
  SparseBuildStats& stats = result.stats;
  FlatPlanProvider provider{&schema,
                            &lattice,
                            &workload,
                            /*plan=*/nullptr,
                            &size_by_mask,
                            fat_indexes_only,
                            /*max_fat_dim=*/n,
                            /*base_id=*/full.mask(),
                            &result.cube,
                            /*families=*/nullptr};
  PrunedPlan plan;
  std::vector<std::vector<IndexKey>> families;
  if (pruning != nullptr) {
    std::vector<double> frequency;
    frequency.reserve(workload.size());
    for (const WeightedQuery& wq : workload.queries()) {
      frequency.push_back(wq.frequency);
    }
    // A query's cone is the supersets of its A ∪ B.
    plan = PlanPrunedBuild(
        *pruning, frequency, uint64_t{1} << n, full.mask(),
        [&](uint32_t qi) { return workload[qi].query.AllAttributes().mask(); },
        [&](uint32_t qi, auto&& visit) {
          for (AttributeSet cset :
               workload[qi].query.AllAttributes().SupersetsWithin(full)) {
            if (!visit(cset.mask())) break;
          }
        },
        stats);
    families = BuildCandidateFamilies(plan, workload, full,
                                      pruning->max_fat_dim, stats);
    provider.plan = &plan;
    provider.families = &families;
    provider.max_fat_dim = pruning->max_fat_dim;
    provider.base_id =
        static_cast<uint32_t>(plan.views.id_of[full.mask()]);
  }

  result.cube.view_attrs.reserve(provider.num_views());
  BuildLatticeGraph(provider, build, result.cube.graph, &stats.build);
  if (pruning != nullptr) RecordSparseBuild(stats);
  return result;
}

}  // namespace

StatusOr<CubeGraph> TryBuildCubeGraph(const CubeSchema& schema,
                                      const ViewSizes& sizes,
                                      const Workload& workload,
                                      const CubeGraphOptions& options) {
  const int n = schema.num_dimensions();
  if (options.fat_indexes_only && n > 8) {
    return Status::InvalidArgument(
        "fat-index cube graphs support at most 8 dimensions (got n = " +
        std::to_string(n) + "; a dim-8 base view already has 8! = 40320 "
        "fat indexes)");
  }
  if (!options.fat_indexes_only && n > 6) {
    return Status::InvalidArgument(
        "all-ordered-subset (fat-index-pruning ablation) cube graphs "
        "support at most 6 dimensions (got n = " +
        std::to_string(n) + ")");
  }
  StatusOr<SparseCubeGraph> built =
      BuildFlatGraph(schema, sizes, workload, LatticeOptionsOf(options),
                     options.fat_indexes_only, /*pruning=*/nullptr);
  if (!built.ok()) return built.status();
  return std::move(built->cube);
}

StatusOr<SparseCubeGraph> TryBuildSparseCubeGraph(
    const CubeSchema& schema, const ViewSizes& sizes,
    const Workload& workload, const SparseCubeGraphOptions& options) {
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
  return BuildFlatGraph(schema, sizes, workload, LatticeOptionsOf(options),
                        /*fat_indexes_only=*/true, &options);
}

}  // namespace olapidx
