#include "core/sparse_cube_graph.h"

#include <algorithm>
#include <bit>
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

// Every view's index family, back to back in view order, for the graph to
// adopt whole: view v's keys are keys[begin[v], begin[v + 1]).
struct IndexFamilies {
  std::vector<IndexKey> keys;
  std::vector<uint32_t> begin;
};

// The flat-cube LatticeProvider, for every build plan. Under the identity
// plan (plan == nullptr) graph view ids are the attribute masks; under a
// pruned plan they are dense in the retained mask set (ascending mask
// order) and answering views resolve through its mask → id inverse. A view
// with at most max_fat_dim attributes carries the canonical family (fat,
// or every ordered subset for the ablation), a wider one its
// workload-derived candidate keys; BuildIndexFamilies writes both into the
// one key array the graph adopts, and the fill reads wide views' keys back
// from the graph. Index costs are the paper's c(Q,V,J) = |C| / |E|, E the
// maximal selection-only key prefix: every cost divides two entries of
// size_by_mask, which is why a pruned graph's costs equal the identity
// graph's bit for bit.
struct FlatPlanProvider {
  const CubeSchema* schema;
  const CubeLattice* lattice;
  const Workload* workload;  // the input workload
  const PrunedPlan* plan;    // null: the identity plan
  std::span<const double> size_by_mask;  // 2^n view sizes, read in place
  bool fat_indexes_only;
  int max_fat_dim;
  uint32_t base_id;
  CubeGraph* out;
  // Moved into the graph by InitGraph.
  IndexFamilies* families;

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
  double ViewSizeOf(uint32_t v) const { return size_by_mask[MaskOf(v)]; }

  void InitGraph(QueryViewGraph& g) const {
    g.SetNameDictionary(schema->names());
    g.AdoptIndexKeys(std::move(families->keys));
  }

  void AddStructures(QueryViewGraph& g, uint32_t v, double size,
                     double maintenance) const {
    const AttributeSet attrs = AttributeSet::FromMask(MaskOf(v));
    const uint32_t gv = g.AddViewRendered(size, [&](std::string& name) {
      attrs.AppendTo(schema->names(), name);
    });
    OLAPIDX_CHECK(gv == v);
    out->view_attrs.push_back(attrs);
    if (maintenance > 0.0) g.SetViewMaintenance(gv, maintenance);
    const std::vector<uint32_t>& begin = families->begin;
    g.AddIndexRange(gv, begin[v], begin[v + 1] - begin[v], size, maintenance);
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

  Ctx MakeContext() const {
    Ctx ctx;
    ctx.full = AttributeSet::Full(schema->num_dimensions());
    return ctx;
  }

  void BeginQuery(Ctx& ctx, size_t qi) const {
    ctx.query = &QueryAt(qi).query;
    ctx.sel = ctx.query->selection().mask();
  }

  template <typename Visit>
  uint64_t ForEachAnsweringView(Ctx& ctx, Visit&& visit) const {
    const AttributeSet need = ctx.query->AllAttributes();
    if (plan == nullptr) {
      uint64_t walked = 0;
      for (AttributeSet cset : need.SupersetsWithin(ctx.full)) {
        visit(cset.mask());
        ++walked;
      }
      return walked;
    }
    return ForEachRetainedSuperset(need, ctx.full, plan->views, visit);
  }

  // Every cost below reads the view's mask and the query's selection only.
  void BeginView(Ctx&, uint32_t) const {}

  uint32_t IndexColumnClass(const Ctx& ctx, uint32_t v) const {
    const uint32_t mask = MaskOf(v);
    if (mask == 0) return 0;  // the apex view has no indexes
    if (!IsCanonical(mask) && out->graph.num_indexes(v) == 0) return 0;
    // A query's index costs from view C depend only on B ∩ C (every prefix
    // E is a subset of C), so queries agreeing on that intersection share
    // one cost column.
    return (ctx.sel & mask) + 1;
  }

  template <typename Emit>
  void ForEachIndexCostClass(const Ctx& ctx, uint32_t v, Emit&& emit) const {
    const uint32_t mask = MaskOf(v);
    const double* sz = size_by_mask.data();
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

// Every view's family, in one key array: a canonical view's fat (or, for
// the ablation, every ordered) key family, and a candidate view's one key
// per distinct selection class of the queries it answers. A query
// answerable at view V has selection ∩ V = B, its whole selection, so a
// wide view's classes are its gathered queries' selections, and no views ×
// queries pair is enumerated. Counts the fat and candidate views and the
// candidate keys.
IndexFamilies BuildIndexFamilies(const FlatPlanProvider& provider,
                                 const ViewQueryLists& lists,
                                 SparseBuildStats& stats) {
  const uint32_t nv = provider.num_views();
  IndexFamilies families;
  families.begin.reserve(size_t{nv} + 1);
  // Reserved at a bound, since a wide view has at most one key per query
  // it answers, so the array the graph adopts holds next to no slack.
  size_t bound = 0;
  for (uint32_t v = 0; v < nv; ++v) {
    const uint32_t mask = provider.MaskOf(v);
    const int m = std::popcount(mask);
    bound += !provider.IsCanonical(mask) ? lists.of(v).size()
             : provider.fat_indexes_only ? CubeLattice::NumFatIndexes(m)
                                         : CubeLattice::NumAllIndexes(m);
  }
  families.keys.reserve(bound);
  std::vector<uint32_t> classes;  // one wide view's, reused
  for (uint32_t v = 0; v < nv; ++v) {
    families.begin.push_back(static_cast<uint32_t>(families.keys.size()));
    const uint32_t mask = provider.MaskOf(v);
    if (provider.IsCanonical(mask)) {
      ++stats.fat_views;
      if (provider.fat_indexes_only) {
        provider.lattice->AppendFatIndexes(mask, families.keys);
      } else {
        provider.lattice->AppendAllIndexes(mask, families.keys);
      }
      continue;
    }
    ++stats.candidate_views;
    classes.clear();
    for (uint32_t q : lists.of(v)) {
      classes.push_back(provider.QueryAt(q).query.selection().mask());
    }
    AppendCandidateFamily(
        std::span(classes),
        [mask](uint32_t prefix) { return CandidateKey(prefix, mask); },
        families.keys);
    stats.candidate_indexes += families.keys.size() - families.begin.back();
  }
  OLAPIDX_CHECK(families.keys.size() <= UINT32_MAX);
  families.begin.push_back(static_cast<uint32_t>(families.keys.size()));
  return families;
}

// The flat build pipeline behind TryBuildCubeGraph and
// TryBuildSparseCubeGraph, which check their own limits first. A null
// `pruning` is the identity plan: every query in input order, every view
// with graph id = mask, and the canonical family of `fat_indexes_only` on
// every view; it records no graph_build.sparse.* metrics. Otherwise the
// pruned plan of `pruning` (fat families only).
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

  SparseCubeGraph result;
  SparseBuildStats& stats = result.stats;
  FlatPlanProvider provider{&schema,
                            &lattice,
                            &workload,
                            /*plan=*/nullptr,
                            sizes.by_mask(),
                            fat_indexes_only,
                            /*max_fat_dim=*/n,
                            /*base_id=*/full.mask(),
                            &result.cube,
                            /*families=*/nullptr};
  PrunedPlan plan;
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
    provider.plan = &plan;
    provider.max_fat_dim = pruning->max_fat_dim;
    provider.base_id =
        static_cast<uint32_t>(plan.views.id_of[full.mask()]);
  }

  // The cone positions the gather walks for the queries with a selection,
  // whose classes make the candidate families.
  uint64_t selection_cone_visits = 0;
  const ViewQueryLists lists =
      GatherViewQueries(provider, [&](size_t qi, uint64_t positions) {
        if (!provider.QueryAt(qi).query.selection().empty()) {
          selection_cone_visits += positions;
        }
      });
  IndexFamilies families = BuildIndexFamilies(provider, lists, stats);
  if (stats.candidate_views > 0) {
    stats.family_cone_visits = selection_cone_visits;
  }
  provider.families = &families;
  result.cube.view_attrs.reserve(provider.num_views());
  result.cube.queries.reserve(provider.num_queries());
  BuildLatticeGraph(provider, lists, build, result.cube.graph, &stats.build);
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
  if (Status s = ValidatePruningOptions(options); !s.ok()) return s;
  return BuildFlatGraph(schema, sizes, workload, LatticeOptionsOf(options),
                        /*fat_indexes_only=*/true, &options);
}

}  // namespace olapidx
