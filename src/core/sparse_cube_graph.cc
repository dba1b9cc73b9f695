#include "core/sparse_cube_graph.h"

#include <bit>
#include <string>
#include <utility>
#include <vector>

#include "core/lattice_graph_builder.h"
#include "core/pruning_policy.h"
#include "lattice/cube_lattice.h"
#include "lattice/index_key.h"

namespace olapidx {

namespace {

// The flat-cube LatticeProvider, for every build plan. Under the identity
// plan (plan == nullptr) graph view ids are the attribute masks; under a
// pruned plan they are dense in the retained mask set (ascending mask
// order) and answering views resolve through its mask → id inverse. A view
// with at most max_fat_dim attributes carries the canonical family (fat,
// or every ordered subset for the ablation), a wider one its
// workload-derived candidate keys. Index costs are the paper's
// c(Q,V,J) = |C| / |E|, E the maximal selection-only key prefix: every
// cost divides two entries of size_by_mask, which is why a pruned graph's
// costs equal the identity graph's bit for bit.
struct FlatPlanProvider {
  const CubeSchema* schema;
  const CubeLattice* lattice;
  const Workload* workload;  // the input workload
  const PrunedPlan* plan;    // null: the identity plan
  const std::vector<double>* size_by_mask;  // 2^n view sizes
  bool fat_indexes_only;
  int max_fat_dim;
  // Graph view id -> candidate keys of the views wider than max_fat_dim.
  const std::vector<std::vector<IndexKey>>* candidate_keys;
  uint32_t base_id;
  CubeGraph* out;

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
    std::vector<IndexKey> keys = !IsCanonical(mask) ? (*candidate_keys)[v]
                                 : fat_indexes_only
                                     ? lattice->FatIndexes(mask)
                                     : lattice->AllIndexes(mask);
    g.AddIndexes(gv, keys, size, maintenance);
    out->index_keys.push_back(std::move(keys));
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
    // Both branches emit ascending ids (view_ids is sorted); pick the
    // cheaper enumeration. Wide queries have few supersets, so the submask
    // walk wins; narrow queries fall back to one subset test per retained
    // view.
    const std::vector<uint64_t>& view_ids = plan->views.view_ids;
    const int free_bits = ctx.full.Minus(need).size();
    if ((uint64_t{1} << free_bits) <= view_ids.size()) {
      for (AttributeSet cset : need.SupersetsWithin(ctx.full)) {
        const int32_t id = plan->views.id_of[cset.mask()];
        if (id >= 0) visit(static_cast<uint32_t>(id));
      }
    } else {
      const uint64_t need_mask = need.mask();
      for (uint32_t v = 0; v < view_ids.size(); ++v) {
        if ((need_mask & ~view_ids[v]) == 0) visit(v);
      }
    }
  }

  uint32_t IndexColumnClass(const Ctx& ctx, uint32_t v) const {
    const uint32_t mask = MaskOf(v);
    if (mask == 0) return 0;  // the apex view has no indexes
    if (!IsCanonical(mask) && (*candidate_keys)[v].empty()) return 0;
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
    const std::vector<IndexKey>& keys = (*candidate_keys)[v];
    for (size_t k = 0; k < keys.size(); ++k) {
      const uint32_t prefix =
          keys[k].LongestSelectionPrefix(ctx.query->selection()).mask();
      emit(static_cast<int64_t>(k), static_cast<int64_t>(k) + 1,
           sz[prefix]);
    }
  }
};

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
                            /*candidate_keys=*/nullptr,
                            /*base_id=*/full.mask(),
                            &result.cube};
  PrunedPlan plan;
  std::vector<std::vector<IndexKey>> candidate_keys;
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

    // Index families for views wider than max_fat_dim: one fat key per
    // distinct selection ∩ view over the retained answerable queries,
    // selection attributes leading.
    std::vector<std::pair<uint32_t, uint32_t>> query_masks;  // (A∪B, B)
    query_masks.reserve(plan.queries.size());
    for (uint32_t qi : plan.queries) {
      query_masks.emplace_back(workload[qi].query.AllAttributes().mask(),
                               workload[qi].query.selection().mask());
    }
    candidate_keys.resize(plan.views.view_ids.size());
    for (size_t v = 0; v < candidate_keys.size(); ++v) {
      const auto mask = static_cast<uint32_t>(plan.views.view_ids[v]);
      if (std::popcount(mask) <= pruning->max_fat_dim) {
        ++stats.fat_views;
        continue;
      }
      ++stats.candidate_views;
      std::vector<std::vector<int>> family = CandidateFamily(
          query_masks.size(), mask, [&](size_t q) -> uint32_t {
            const auto& [need, sel] = query_masks[q];
            if ((need & ~mask) != 0) return 0;  // not answerable here
            return sel & mask;
          });
      std::vector<IndexKey>& keys = candidate_keys[v];
      keys.reserve(family.size());
      for (std::vector<int>& order : family) keys.emplace_back(std::move(order));
      stats.candidate_indexes += keys.size();
    }
    provider.plan = &plan;
    provider.max_fat_dim = pruning->max_fat_dim;
    provider.candidate_keys = &candidate_keys;
    provider.base_id =
        static_cast<uint32_t>(plan.views.id_of[full.mask()]);
  }

  result.cube.view_attrs.reserve(provider.num_views());
  result.cube.index_keys.reserve(provider.num_views());
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
