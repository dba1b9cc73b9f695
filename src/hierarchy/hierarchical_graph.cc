#include "hierarchy/hierarchical_graph.h"

#include <algorithm>
#include <bit>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <utility>

#include "common/rng.h"
#include "core/lattice_graph_builder.h"
#include "core/pruning_policy.h"

namespace olapidx {

namespace {

// A(m, r) = m · (m-1) · … · (m-r+1): arrangements of r of m elements.
int64_t Falling(int m, int r) {
  int64_t a = 1;
  for (int i = 0; i < r; ++i) a *= m - i;
  return a;
}

// Indexes per view with m active dimensions, by family.
int64_t NumIndexesForActive(int m, bool fat_indexes_only) {
  if (m == 0) return 0;
  if (fat_indexes_only) return Falling(m, m);
  int64_t total = 0;
  for (int r = 1; r <= m; ++r) total += Falling(m, r);
  return total;
}

// Decodes the k-th key order of a view with active dimensions `active`
// (ascending), under the canonical family order — lexicographic
// permutations for fat indexes, length-then-lexicographic arrangements for
// the ablation (FatIndexOrders / AllIndexOrders rank k) — via the factorial
// number system.
std::vector<int> DecodeOrder(const std::vector<int>& active, int64_t k,
                             bool fat_indexes_only) {
  const int m = static_cast<int>(active.size());
  int r = m;
  if (!fat_indexes_only) {
    int64_t offset = 0;
    for (r = 1; r <= m; ++r) {
      const int64_t block = Falling(m, r);
      if (k < offset + block) break;
      offset += block;
    }
    OLAPIDX_CHECK(r <= m);
    k -= offset;
  }
  std::vector<int> avail = active;
  std::vector<int> order;
  order.reserve(static_cast<size_t>(r));
  for (int d = 0; d < r; ++d) {
    const int64_t block = Falling(m - d - 1, r - d - 1);
    const auto i = static_cast<size_t>(k / block);
    k %= block;
    OLAPIDX_CHECK(i < avail.size());
    order.push_back(avail[i]);
    avail.erase(avail.begin() + static_cast<ptrdiff_t>(i));
  }
  return order;
}

// Inverse of DecodeOrder: the family rank of `order`, or -1 when it is not
// a valid key order over `active` (wrong length for the family, a repeated
// dimension, or a dimension outside the active set).
int64_t OrderRank(const std::vector<int>& active,
                  const std::vector<int>& order, bool fat_indexes_only) {
  const int m = static_cast<int>(active.size());
  const int r = static_cast<int>(order.size());
  if (r == 0 || r > m) return -1;
  if (fat_indexes_only && r != m) return -1;
  int64_t rank = 0;
  if (!fat_indexes_only) {
    for (int len = 1; len < r; ++len) rank += Falling(m, len);
  }
  std::vector<int> avail = active;
  for (int d = 0; d < r; ++d) {
    const auto it =
        std::find(avail.begin(), avail.end(), order[static_cast<size_t>(d)]);
    if (it == avail.end()) return -1;
    rank += (it - avail.begin()) * Falling(m - d - 1, r - d - 1);
    avail.erase(it);
  }
  return rank;
}

// The subcube id holding the distinct combinations of `dims` at the
// query's selection levels (ALL elsewhere) — the |E| of the cost formula.
HViewId PrefixSubcube(const HierarchicalLattice& lattice,
                      const HSliceQuery& query,
                      const std::vector<int>& prefix_dims) {
  const HierarchicalSchema& schema = lattice.schema();
  std::vector<int> levels(static_cast<size_t>(schema.num_dimensions()));
  for (int d = 0; d < schema.num_dimensions(); ++d) {
    levels[static_cast<size_t>(d)] = schema.all_level(d);
  }
  for (int d : prefix_dims) {
    levels[static_cast<size_t>(d)] = query.role(d).level;
  }
  return lattice.IdOf(LevelVector(std::move(levels)));
}

std::vector<int> AllLevelsOf(const HierarchicalSchema& schema) {
  std::vector<int> all(static_cast<size_t>(schema.num_dimensions()));
  for (int d = 0; d < schema.num_dimensions(); ++d) {
    all[static_cast<size_t>(d)] = schema.all_level(d);
  }
  return all;
}

// Everything the lazy index namer needs, captured by value so the closure
// outlives the build (QueryViewGraph consults it on demand).
struct NamerState {
  std::vector<std::string> dim_names;
  // Per dimension, level names including "ALL" at index all_level.
  std::vector<std::vector<std::string>> level_names;
  std::vector<uint64_t> strides;
  std::vector<int> radices;
  std::vector<int> all_levels;
  bool fat_indexes_only = true;
  // Sparse builds only: graph view id -> lattice id (empty = identity) and
  // per-view candidate key orders (an empty per-view family = canonical
  // fat enumeration, decoded on demand).
  std::vector<uint64_t> view_ids;
  std::vector<std::vector<std::vector<int>>> orders;
};

std::function<std::string(uint32_t, int32_t)> MakeIndexNamer(
    const HierarchicalSchema& schema, const HierarchicalLattice& lattice,
    bool fat_indexes_only, std::vector<uint64_t> view_ids = {},
    std::vector<std::vector<std::vector<int>>> orders = {}) {
  auto state = std::make_shared<NamerState>();
  const int n = schema.num_dimensions();
  state->fat_indexes_only = fat_indexes_only;
  state->all_levels = AllLevelsOf(schema);
  state->view_ids = std::move(view_ids);
  state->orders = std::move(orders);
  for (int d = 0; d < n; ++d) {
    state->dim_names.push_back(schema.dimension(d).name);
    std::vector<std::string> names;
    for (int level = 0; level <= schema.all_level(d); ++level) {
      names.push_back(schema.level_name(d, level));
    }
    state->level_names.push_back(std::move(names));
    state->strides.push_back(lattice.stride(d));
    state->radices.push_back(schema.radix(d));
  }
  return [state](uint32_t v, int32_t k) {
    const uint64_t id = state->view_ids.empty()
                            ? static_cast<uint64_t>(v)
                            : state->view_ids[v];
    const int nd = static_cast<int>(state->dim_names.size());
    std::vector<int> levels(static_cast<size_t>(nd));
    std::vector<int> active;
    for (int d = 0; d < nd; ++d) {
      const int level = static_cast<int>(
          (id / state->strides[static_cast<size_t>(d)]) %
          static_cast<uint64_t>(state->radices[static_cast<size_t>(d)]));
      levels[static_cast<size_t>(d)] = level;
      if (level != state->all_levels[static_cast<size_t>(d)]) {
        active.push_back(d);
      }
    }
    std::vector<int> order =
        !state->orders.empty() && !state->orders[v].empty()
            ? state->orders[v][static_cast<size_t>(k)]
            : DecodeOrder(active, k, state->fat_indexes_only);
    std::string name = "I_";
    for (int d : order) {
      name += state->dim_names[static_cast<size_t>(d)] + "." +
              state->level_names[static_cast<size_t>(d)]
                                [static_cast<size_t>(
                                     levels[static_cast<size_t>(d)])] +
              ".";
    }
    name.pop_back();
    return name;
  };
}

// External-input validation of a hierarchical workload (both plans): role
// vectors must match the schema and mentioned dimensions must sit at
// proper levels.
Status ValidateHierarchicalWorkload(
    const HierarchicalSchema& schema,
    const std::vector<WeightedHQuery>& workload) {
  const int n = schema.num_dimensions();
  for (size_t qi = 0; qi < workload.size(); ++qi) {
    const WeightedHQuery& wq = workload[qi];
    auto fail = [&](const std::string& message) {
      return Status::InvalidArgument("workload query " +
                                     std::to_string(qi + 1) + ": " + message);
    };
    if (static_cast<int>(wq.query.roles().size()) != n) {
      return fail("has " + std::to_string(wq.query.roles().size()) +
                  " dimension roles, schema has " + std::to_string(n) +
                  " dimensions");
    }
    if (wq.frequency < 0.0) {
      return fail("negative frequency " + std::to_string(wq.frequency));
    }
    for (int d = 0; d < n; ++d) {
      const HDimRole& role = wq.query.role(d);
      if (role.kind == HDimRole::kAbsent) continue;
      if (role.level < 0 || role.level >= schema.num_levels(d)) {
        return fail("dimension '" + schema.dimension(d).name +
                    "' mentioned at level " + std::to_string(role.level) +
                    ", outside its proper levels [0, " +
                    std::to_string(schema.num_levels(d) - 1) + "]");
      }
    }
  }
  return Status::Ok();
}

}  // namespace

std::vector<int> HierarchicalCubeGraph::ActiveDimensionsOf(
    uint32_t v) const {
  const LevelVector& levels = view_levels[v];
  std::vector<int> active;
  for (int d = 0; d < levels.size(); ++d) {
    if (levels.level(d) != all_levels[static_cast<size_t>(d)]) {
      active.push_back(d);
    }
  }
  return active;
}

std::vector<int> HierarchicalCubeGraph::IndexOrderOf(uint32_t v,
                                                     int32_t k) const {
  // A non-empty per-view family is authoritative (the reference builder's
  // canonical enumeration, or a sparse build's candidate family). Views
  // with an empty per-view vector — every view of a fast dense build, and
  // the fat views of a sparse one — decode the canonical family on demand.
  if (!index_orders.empty() && !index_orders[v].empty()) {
    return index_orders[v][static_cast<size_t>(k)];
  }
  return DecodeOrder(ActiveDimensionsOf(v), k, fat_indexes_only);
}

int32_t HierarchicalCubeGraph::IndexPositionOf(
    uint32_t v, const std::vector<int>& order) const {
  // Candidate families are sparse subsets of the canonical enumeration, so
  // their ranks are positional, not combinatorial — search the stored
  // family. (Reference builds store the canonical family, for which the
  // search agrees with OrderRank.)
  if (!index_orders.empty() && !index_orders[v].empty()) {
    const std::vector<std::vector<int>>& family = index_orders[v];
    for (size_t k = 0; k < family.size(); ++k) {
      if (family[k] == order) return static_cast<int32_t>(k);
    }
    return -1;
  }
  const int64_t rank =
      OrderRank(ActiveDimensionsOf(v), order, fat_indexes_only);
  return rank < 0 ? -1 : static_cast<int32_t>(rank);
}

std::vector<WeightedHQuery> UniformHWorkload(
    const HierarchicalSchema& schema) {
  std::vector<WeightedHQuery> out;
  for (HSliceQuery& q : EnumerateAllHQueries(schema)) {
    out.push_back(WeightedHQuery{std::move(q), 1.0});
  }
  return out;
}

HierarchicalCubeGraph BuildHierarchicalCubeGraphReference(
    const HierarchicalSchema& schema, double raw_rows,
    const std::vector<WeightedHQuery>& workload,
    const HierarchicalGraphOptions& options) {
  OLAPIDX_CHECK(raw_rows >= 1.0);
  OLAPIDX_CHECK(options.raw_scan_penalty >= 1.0);
  OLAPIDX_CHECK(!options.pruning.has_value());
  HierarchicalLattice lattice(&schema);

  HierarchicalCubeGraph out;
  out.view_sizes = lattice.AnalyticalSizes(raw_rows);
  out.all_levels = AllLevelsOf(schema);
  out.fat_indexes_only = options.fat_indexes_only;
  QueryViewGraph& g = out.graph;

  for (HViewId v = 0; v < lattice.num_views(); ++v) {
    LevelVector levels = lattice.LevelsOf(v);
    double size = out.view_sizes[v];
    uint32_t gv = g.AddView(lattice.ViewName(levels), size);
    OLAPIDX_CHECK(gv == v);
    if (options.maintenance_per_row > 0.0) {
      g.SetViewMaintenance(gv, options.maintenance_per_row * size);
    }
    std::vector<std::vector<int>> orders =
        options.fat_indexes_only ? lattice.FatIndexOrders(levels)
                                 : lattice.AllIndexOrders(levels);
    for (const std::vector<int>& order : orders) {
      std::string name = "I_";
      for (int d : order) {
        name += schema.dimension(d).name + "." +
                schema.level_name(d, levels.level(d)) + ".";
      }
      name.pop_back();
      int32_t gi = g.AddIndex(gv, name, size);
      if (options.maintenance_per_row > 0.0) {
        g.SetIndexMaintenance(gv, gi,
                              options.maintenance_per_row * size);
      }
    }
    out.view_levels.push_back(std::move(levels));
    out.index_orders.push_back(std::move(orders));
  }

  double default_cost =
      options.default_query_cost > 0.0
          ? options.default_query_cost
          : options.raw_scan_penalty * out.view_sizes[lattice.BaseView()];

  for (const WeightedHQuery& wq : workload) {
    uint32_t q = g.AddQuery(wq.query.ToString(schema), default_cost,
                            wq.frequency);
    out.queries.push_back(wq.query);
    for (HViewId v = 0; v < lattice.num_views(); ++v) {
      const LevelVector& levels = out.view_levels[v];
      if (!wq.query.AnswerableFrom(levels, schema)) continue;
      double scan = out.view_sizes[v];
      g.AddViewEdge(q, static_cast<uint32_t>(v), scan);
      const std::vector<std::vector<int>>& orders = out.index_orders[v];
      for (size_t k = 0; k < orders.size(); ++k) {
        // Longest prefix of the key's dimension order made of this
        // query's selection dimensions.
        std::vector<int> prefix;
        for (int d : orders[k]) {
          if (wq.query.role(d).kind != HDimRole::kSelect) break;
          prefix.push_back(d);
        }
        if (prefix.empty()) continue;
        double denom =
            out.view_sizes[PrefixSubcube(lattice, wq.query, prefix)];
        double cost = scan / denom;
        // Same pruning rule as the generic builder
        // (core/lattice_graph_builder.h): emit iff cost < scan. The
        // prefix.empty() skip above is the rule's degenerate case — the
        // all-ALL denominator is exactly 1, so an empty prefix costs
        // exactly a scan.
        if (cost < scan) {
          g.AddIndexEdge(q, static_cast<uint32_t>(v),
                         static_cast<int32_t>(k), cost);
        }
      }
    }
  }
  g.Finalize();
  return out;
}

std::vector<WeightedHQuery> SampledZipfHWorkload(
    const HierarchicalSchema& schema, size_t num_queries, double skew,
    uint64_t seed) {
  const int n = schema.num_dimensions();
  // Population: each dimension independently absent, grouped at one of its
  // levels, or selected at one of its levels. Counted in doubles — the
  // product overflows uint64 long before rejection sampling struggles.
  double total = 1.0;
  for (int d = 0; d < n; ++d) {
    total *= 1.0 + 2.0 * schema.num_levels(d);
  }
  OLAPIDX_CHECK(num_queries > 0 &&
                static_cast<double>(num_queries) <= total);

  // Rejection-sample distinct queries, mirroring SampledZipfSliceQueries:
  // each draw picks an independent role per dimension, uniform over the
  // population without enumerating it.
  Pcg32 rng(seed);
  std::vector<HSliceQuery> sample;
  sample.reserve(num_queries);
  std::set<std::vector<int>> seen;
  std::vector<int> key(static_cast<size_t>(n));
  while (sample.size() < num_queries) {
    std::vector<HDimRole> roles(static_cast<size_t>(n));
    for (int d = 0; d < n; ++d) {
      const int levels = schema.num_levels(d);
      const int c = static_cast<int>(
          rng.NextBounded(static_cast<uint32_t>(1 + 2 * levels)));
      key[static_cast<size_t>(d)] = c;
      HDimRole& role = roles[static_cast<size_t>(d)];
      if (c == 0) {
        role.kind = HDimRole::kAbsent;
      } else if (c <= levels) {
        role.kind = HDimRole::kGroupBy;
        role.level = c - 1;
      } else {
        role.kind = HDimRole::kSelect;
        role.level = c - levels - 1;
      }
    }
    if (!seen.insert(key).second) continue;
    sample.emplace_back(HSliceQuery(std::move(roles)));
  }

  // Draw rank = heat rank: the k-th distinct query sampled gets the k-th
  // Zipf mass.
  ZipfSampler zipf(static_cast<uint32_t>(num_queries), skew);
  std::vector<WeightedHQuery> out;
  out.reserve(num_queries);
  for (size_t k = 0; k < num_queries; ++k) {
    out.push_back(WeightedHQuery{
        std::move(sample[k]),
        zipf.Probability(static_cast<uint32_t>(k))});
  }
  return out;
}

namespace {

// The hierarchical LatticeProvider, for every build plan. Views are
// mixed-radix level-vector ids: graph view id = lattice id under the
// identity plan (plan == nullptr), dense in the retained set (ascending
// lattice-id order) under a pruned plan, whose answering views resolve
// through the lattice-id → dense-id inverse. A view with at most
// max_fat_dim active dimensions carries the canonical family (fat, or
// every ordered subset for the ablation), costed by WalkKeyFamily over its
// active dimensions mapped to local bits: a class's cost depends only on
// the prefix's dimension *set* (key order within the prefix never changes
// |E|), so one division covers a whole contiguous rank range of key
// orders. A wider view carries its workload-derived candidate orders.
// Every denominator is sizes[subcube id] from the one full-lattice
// AnalyticalSizes array, which is why a pruned graph's costs equal the
// identity graph's bit for bit.
struct HierarchicalPlanProvider {
  const HierarchicalSchema* schema;
  const HierarchicalLattice* lattice;
  const std::vector<WeightedHQuery>* workload;  // the input workload
  const PrunedPlan* plan;                       // null: the identity plan
  const std::vector<double>* sizes;  // full-lattice AnalyticalSizes
  bool fat_indexes_only;
  int max_fat_dim;
  // Graph view id -> candidate key orders of the views with more than
  // max_fat_dim active dimensions.
  const std::vector<std::vector<std::vector<int>>>* orders;
  // Graph view id * n + d -> level, for a pruned plan's linear
  // answering-view scan (null under the identity plan, which never scans).
  const std::vector<int>* levels_flat;
  HierarchicalCubeGraph* out;
  int n = 0;
  uint64_t all_all_id = 0;  // lattice apex id = lattice num_views - 1
  uint32_t base_id = 0;     // graph id of the lattice base view

  struct Ctx {
    // The query's, set by BeginQuery:
    std::vector<int> required;    // per dim: coarsest answering level
    std::vector<int64_t> delta;   // select dims: (sel_level − ALL)·stride
    std::vector<char> is_select;  // per dim
    uint64_t cone_size = 1;       // Π (required_d + 1)
    // The view's, set by BeginView: its level digits.
    std::vector<int> lv;
    // Scratch: the cone walk's odometer digits, and per active local bit
    // of the view its delta (select dimensions only).
    std::vector<int> digits;
    std::vector<int64_t> local_delta;
  };

  uint64_t LatticeIdOf(uint32_t v) const {
    return plan == nullptr ? v : plan->views.view_ids[v];
  }
  const WeightedHQuery& QueryAt(size_t qi) const {
    return (*workload)[plan == nullptr ? qi : plan->queries[qi]];
  }

  uint32_t num_views() const {
    return static_cast<uint32_t>(plan == nullptr
                                     ? lattice->num_views()
                                     : plan->views.view_ids.size());
  }
  uint32_t BaseView() const { return base_id; }
  double ViewSizeOf(uint32_t v) const { return (*sizes)[LatticeIdOf(v)]; }

  void InitGraph(QueryViewGraph& g) const {
    g.SetIndexNamer(
        plan == nullptr
            ? MakeIndexNamer(*schema, *lattice, fat_indexes_only)
            : MakeIndexNamer(*schema, *lattice, fat_indexes_only,
                             plan->views.view_ids, *orders));
  }

  void AddStructures(QueryViewGraph& g, uint32_t v, double size,
                     double maintenance) const {
    LevelVector levels = lattice->LevelsOf(LatticeIdOf(v));
    uint32_t gv = g.AddView(lattice->ViewName(levels), size);
    OLAPIDX_CHECK(gv == v);
    if (maintenance > 0.0) g.SetViewMaintenance(gv, maintenance);
    const int m =
        static_cast<int>(lattice->ActiveDimensions(levels).size());
    const int64_t count = m <= max_fat_dim
                              ? NumIndexesForActive(m, fat_indexes_only)
                              : static_cast<int64_t>((*orders)[v].size());
    g.AddIndexesNamed(gv, static_cast<int32_t>(count), size, maintenance);
    out->view_levels.push_back(std::move(levels));
  }

  size_t num_queries() const {
    return plan == nullptr ? workload->size() : plan->queries.size();
  }

  void AddQuery(QueryViewGraph& g, size_t qi, double default_cost) const {
    const WeightedHQuery& wq = QueryAt(qi);
    g.AddQuery(wq.query.ToString(*schema), default_cost, wq.frequency);
    out->queries.push_back(wq.query);
  }

  Ctx MakeContext() const {
    Ctx ctx;
    ctx.required.resize(static_cast<size_t>(n));
    ctx.delta.resize(static_cast<size_t>(n));
    ctx.is_select.resize(static_cast<size_t>(n));
    ctx.lv.resize(static_cast<size_t>(n));
    ctx.digits.resize(static_cast<size_t>(n));
    ctx.local_delta.reserve(static_cast<size_t>(n));
    return ctx;
  }

  void BeginQuery(Ctx& ctx, size_t qi) const {
    const HSliceQuery& q = QueryAt(qi).query;
    ctx.cone_size = 1;
    for (int d = 0; d < n; ++d) {
      const HDimRole& role = q.role(d);
      const auto sd = static_cast<size_t>(d);
      ctx.required[sd] =
          role.kind == HDimRole::kAbsent ? schema->all_level(d) : role.level;
      ctx.is_select[sd] = role.kind == HDimRole::kSelect;
      ctx.delta[sd] =
          ctx.is_select[sd]
              ? (static_cast<int64_t>(role.level) - schema->all_level(d)) *
                    static_cast<int64_t>(lattice->stride(d))
              : 0;
      ctx.cone_size *= static_cast<uint64_t>(ctx.required[sd]) + 1;
    }
  }

  template <typename Visit>
  uint64_t ForEachAnsweringView(Ctx& ctx, Visit&& visit) const {
    // The views that can answer the query are exactly those at least as
    // fine as its required levels: the product of [0, required_d] per
    // dimension, walked as a mixed-radix odometer (dimension 0 fastest =
    // ascending view ids). Both branches emit ascending graph ids. The
    // identity plan always takes the odometer; a pruned plan scans its
    // retained views instead when that is cheaper.
    if (plan == nullptr || ctx.cone_size <= plan->views.view_ids.size()) {
      std::vector<int>& digits = ctx.digits;
      std::fill(digits.begin(), digits.end(), 0);
      uint64_t v = 0;  // the finest view has lattice id 0
      for (;;) {
        if (plan == nullptr) {
          visit(static_cast<uint32_t>(v));
        } else if (const int32_t dense =
                       plan->views.id_of[static_cast<size_t>(v)];
                   dense >= 0) {
          visit(static_cast<uint32_t>(dense));
        }
        int d = 0;
        while (d < n && digits[static_cast<size_t>(d)] ==
                            ctx.required[static_cast<size_t>(d)]) {
          v -= static_cast<uint64_t>(digits[static_cast<size_t>(d)]) *
               lattice->stride(d);
          digits[static_cast<size_t>(d)] = 0;
          ++d;
        }
        if (d == n) break;
        ++digits[static_cast<size_t>(d)];
        v += lattice->stride(d);
      }
      return ctx.cone_size;
    }
    for (uint32_t dense = 0; dense < plan->views.view_ids.size(); ++dense) {
      const int* lv =
          levels_flat->data() + size_t{dense} * static_cast<size_t>(n);
      bool answers = true;
      for (int d = 0; d < n; ++d) {
        if (lv[d] > ctx.required[static_cast<size_t>(d)]) {
          answers = false;
          break;
        }
      }
      if (answers) visit(dense);
    }
    return plan->views.view_ids.size();
  }

  // IndexColumnClass and ForEachIndexCostClass read the view's level
  // digits from ctx.lv.
  void BeginView(Ctx& ctx, uint32_t v) const {
    const LevelVector& levels = out->view_levels[v];
    for (int d = 0; d < n; ++d) {
      ctx.lv[static_cast<size_t>(d)] = levels.level(d);
    }
  }

  uint32_t IndexColumnClass(const Ctx& ctx, uint32_t v) const {
    // A query's index costs from a view depend only on the restriction of
    // the view's active dimensions to the query's selection (each |E|
    // denominator is the subcube of a selection-dimension prefix at the
    // query's select levels), so queries agreeing on that restricted
    // subcube share one cost column — in any key family. Its id, shifted
    // to be non-zero, is the column class; ids stay < 2^20 by the
    // kMaxHierarchicalViews ceiling. 0 for the apex (no active dimension,
    // the only canonical view without indexes) and for wide views whose
    // candidate family is empty.
    int64_t id = static_cast<int64_t>(all_all_id);
    int m = 0;
    for (int d = 0; d < n; ++d) {
      const auto sd = static_cast<size_t>(d);
      if (ctx.lv[sd] == schema->all_level(d)) continue;
      ++m;
      if (ctx.is_select[sd]) id += ctx.delta[sd];
    }
    if (m == 0) return 0;
    if (m > max_fat_dim && (*orders)[v].empty()) return 0;
    return static_cast<uint32_t>(id) + 1;
  }

  template <typename Emit>
  void ForEachIndexCostClass(Ctx& ctx, uint32_t v, Emit&& emit) const {
    const double* sz = sizes->data();
    // Map the view's active dimensions to local bits 0..m-1 (ascending
    // dimension order — the rank order of FatIndexOrders/AllIndexOrders).
    ctx.local_delta.clear();
    uint32_t sel_local = 0;
    for (int d = 0; d < n; ++d) {
      const auto sd = static_cast<size_t>(d);
      if (ctx.lv[sd] == schema->all_level(d)) continue;
      if (ctx.is_select[sd]) {
        sel_local |= 1u << ctx.local_delta.size();
      }
      ctx.local_delta.push_back(ctx.delta[sd]);
    }
    const int m = static_cast<int>(ctx.local_delta.size());
    if (m <= max_fat_dim) {
      // |E|: the subcube of the prefix dimensions at the query's select
      // levels, ALL elsewhere = apex id plus the precomputed per-dimension
      // stride deltas (prefix bits are always selection bits).
      WalkKeyFamily((1u << m) - 1, m, sel_local, fat_indexes_only,
                    [&](int64_t rb, int64_t re, uint32_t prefix) {
                      int64_t denom_id = static_cast<int64_t>(all_all_id);
                      for (uint32_t rest = prefix; rest != 0;
                           rest &= rest - 1) {
                        denom_id += ctx.local_delta[static_cast<size_t>(
                            std::countr_zero(rest))];
                      }
                      emit(rb, re, sz[denom_id]);
                    });
      return;
    }
    // Candidate family: each key serves its query at the longest leading
    // run of selection dimensions; denominators are the same per-dimension
    // stride deltas as the canonical path.
    const std::vector<std::vector<int>>& family = (*orders)[v];
    for (size_t k = 0; k < family.size(); ++k) {
      int64_t denom_id = static_cast<int64_t>(all_all_id);
      for (int d : family[k]) {
        if (!ctx.is_select[static_cast<size_t>(d)]) break;
        denom_id += ctx.delta[static_cast<size_t>(d)];
      }
      emit(static_cast<int64_t>(k), static_cast<int64_t>(k) + 1,
           sz[denom_id]);
    }
  }
};

// The identity plan's up-front limits: the canonical family of the base
// view must be enumerable, and the full lattice's structure census must
// fit kMaxHierarchicalStructures. (A pruned plan checks its retained census
// instead, while it builds the candidate families.)
Status CheckIdentityLimits(const HierarchicalSchema& schema,
                           bool fat_indexes_only) {
  const int n = schema.num_dimensions();
  if (fat_indexes_only && n > 8) {
    return Status::InvalidArgument(
        "fat-index hierarchical graphs support at most 8 dimensions (got "
        "n = " +
        std::to_string(n) +
        "; the base view's fat indexes are permutations of all n "
        "dimensions)");
  }
  if (!fat_indexes_only && n > 6) {
    return Status::InvalidArgument(
        "all-ordered-subset (fat-index-pruning ablation) hierarchical "
        "graphs support at most 6 dimensions (got n = " +
        std::to_string(n) + ")");
  }
  // Total structure census, combinatorially: the views whose active set is
  // exactly the dimension subset S number Π_{d∈S} levels_d, and each
  // carries 1 view + family(|S|) indexes.
  uint64_t total_structures = 0;
  for (uint32_t mask = 0; mask < (1u << n); ++mask) {
    uint64_t views_with = 1;
    int m = 0;
    for (int d = 0; d < n; ++d) {
      if ((mask >> d) & 1u) {
        views_with *= static_cast<uint64_t>(schema.num_levels(d));
        ++m;
      }
    }
    total_structures +=
        views_with *
        (1 + static_cast<uint64_t>(NumIndexesForActive(m, fat_indexes_only)));
    if (total_structures > kMaxHierarchicalStructures) {
      return Status::InvalidArgument(
          "hierarchical lattice carries over " +
          std::to_string(kMaxHierarchicalStructures) +
          " structures (views + indexes); coarsen or drop hierarchy "
          "levels");
    }
  }
  return Status::Ok();
}

}  // namespace

// The hierarchical build pipeline. Without options.pruning, the identity
// plan: every query in input order, every view with graph id = lattice id,
// and the canonical family of fat_indexes_only on every view, with
// index_orders and sparse_stats left empty. With it, the pruned plan (fat
// families only).
StatusOr<HierarchicalCubeGraph> TryBuildHierarchicalCubeGraph(
    const HierarchicalSchema& schema, double raw_rows,
    const std::vector<WeightedHQuery>& workload,
    const HierarchicalGraphOptions& options) {
  if (!(raw_rows >= 1.0)) {
    return Status::InvalidArgument("raw_rows must be >= 1 (got " +
                                   std::to_string(raw_rows) + ")");
  }
  const LatticeGraphOptions build = LatticeOptionsOf(options);
  if (Status s = ValidateLatticeGraphOptions(build); !s.ok()) return s;
  const std::optional<PruningOptions>& pruning = options.pruning;
  const bool fat_indexes_only = options.fat_indexes_only;
  if (pruning) {
    if (!fat_indexes_only) {
      return Status::InvalidArgument(
          "pruned hierarchical graphs build fat index families only "
          "(fat_indexes_only must be true)");
    }
    if (Status s = ValidatePruningOptions(*pruning); !s.ok()) return s;
  }
  const int n = schema.num_dimensions();
  const uint64_t num_views = schema.NumViews();
  // Even a pruned plan needs the full lattice under the view-id ceiling:
  // index-edge column classes are keyed by lattice subcube ids.
  if (num_views > kMaxHierarchicalViews) {
    return Status::InvalidArgument(
        "hierarchical lattice has " + std::to_string(num_views) +
        " views, over the ceiling of " +
        std::to_string(kMaxHierarchicalViews) +
        "; coarsen or drop hierarchy levels");
  }
  if (!pruning) {
    if (Status s = CheckIdentityLimits(schema, fat_indexes_only); !s.ok()) {
      return s;
    }
  }
  if (Status s = ValidateHierarchicalWorkload(schema, workload); !s.ok()) {
    return s;
  }

  const HierarchicalLattice lattice(&schema);
  HierarchicalCubeGraph out;
  SparseBuildStats stats;
  out.all_levels = AllLevelsOf(schema);
  out.fat_indexes_only = fat_indexes_only;
  std::vector<double> sizes = lattice.AnalyticalSizes(raw_rows);
  HierarchicalPlanProvider provider{
      &schema,
      &lattice,
      &workload,
      /*plan=*/nullptr,
      &sizes,
      fat_indexes_only,
      /*max_fat_dim=*/n,
      /*orders=*/nullptr,
      /*levels_flat=*/nullptr,
      &out,
      n,
      /*all_all_id=*/num_views - 1,
      /*base_id=*/static_cast<uint32_t>(lattice.BaseView())};
  PrunedPlan plan;
  std::vector<std::vector<std::vector<int>>> orders;
  std::vector<int> levels_flat;
  ViewQueryLists lists;
  if (!pruning) {
    out.view_sizes = std::move(sizes);
    provider.sizes = &out.view_sizes;
  } else {
    // Per input query: coarsest answering level per dimension and the
    // selected-dimension mask, hoisted for the cone walks and candidate
    // classes below.
    const size_t nq = workload.size();
    std::vector<int> required_flat(nq * static_cast<size_t>(n));
    std::vector<uint32_t> sel_mask(nq, 0);
    std::vector<double> frequency(nq);
    for (size_t qi = 0; qi < nq; ++qi) {
      for (int d = 0; d < n; ++d) {
        const HDimRole& role = workload[qi].query.role(d);
        required_flat[qi * static_cast<size_t>(n) + static_cast<size_t>(d)] =
            role.kind == HDimRole::kAbsent ? schema.all_level(d)
                                           : role.level;
        if (role.kind == HDimRole::kSelect) {
          sel_mask[qi] |= 1u << d;
        }
      }
      frequency[qi] = workload[qi].frequency;
    }

    // A query's cone is the mixed-radix box [0, required_d] per dimension,
    // walked as an odometer (ascending lattice ids).
    std::vector<int> cone_lv(static_cast<size_t>(n));
    plan = PlanPrunedBuild(
        *pruning, frequency, num_views, lattice.BaseView(),
        [&](uint32_t qi) {
          return lattice.IdOf(workload[qi].query.RequiredLevels(schema));
        },
        [&](uint32_t qi, auto&& visit) {
          const int* req = required_flat.data() +
                           size_t{qi} * static_cast<size_t>(n);
          std::fill(cone_lv.begin(), cone_lv.end(), 0);
          uint64_t v = 0;
          for (;;) {
            if (!visit(v)) return;
            int d = 0;
            while (d < n && cone_lv[static_cast<size_t>(d)] == req[d]) {
              v -= static_cast<uint64_t>(cone_lv[static_cast<size_t>(d)]) *
                   lattice.stride(d);
              cone_lv[static_cast<size_t>(d)] = 0;
              ++d;
            }
            if (d == n) return;
            ++cone_lv[static_cast<size_t>(d)];
            v += lattice.stride(d);
          }
        },
        stats);
    const std::vector<uint64_t>& view_ids = plan.views.view_ids;
    const size_t nv = view_ids.size();

    levels_flat.resize(nv * static_cast<size_t>(n));
    std::vector<uint32_t> active_mask(nv, 0);
    for (size_t v = 0; v < nv; ++v) {
      const LevelVector levels = lattice.LevelsOf(view_ids[v]);
      for (int d = 0; d < n; ++d) {
        const int level = levels.level(d);
        levels_flat[v * static_cast<size_t>(n) + static_cast<size_t>(d)] =
            level;
        if (level != schema.all_level(d)) active_mask[v] |= 1u << d;
      }
    }
    provider.plan = &plan;
    provider.max_fat_dim = pruning->max_fat_dim;
    provider.orders = &orders;
    provider.levels_flat = &levels_flat;
    provider.base_id =
        static_cast<uint32_t>(plan.views.id_of[lattice.BaseView()]);
    lists = GatherViewQueries(provider, [](size_t, uint64_t) {});

    // Candidate index families and the retained structure census. Wide
    // views get one key per distinct selection class of the retained
    // queries they answer (CandidateKey over dimension ids: selected
    // dimensions leading, remaining active dimensions trailing), read off
    // their gathered query lists.
    orders.resize(nv);
    uint64_t total_structures = 0;
    std::vector<uint32_t> classes;
    for (size_t v = 0; v < nv; ++v) {
      const int m = std::popcount(active_mask[v]);
      if (m <= pruning->max_fat_dim) {
        ++stats.fat_views;
        total_structures += 1 + static_cast<uint64_t>(NumIndexesForActive(
                                    m, /*fat_indexes_only=*/true));
      } else {
        ++stats.candidate_views;
        classes.clear();
        for (uint32_t q : lists.of(static_cast<uint32_t>(v))) {
          classes.push_back(sel_mask[plan.queries[q]] & active_mask[v]);
        }
        AppendCandidateFamily(
            std::span(classes),
            [&](uint32_t prefix) {
              return CandidateKey(prefix, active_mask[v]).ToVector();
            },
            orders[v]);
        stats.candidate_indexes += orders[v].size();
        total_structures += 1 + orders[v].size();
      }
      if (total_structures > kMaxHierarchicalStructures) {
        return Status::InvalidArgument(
            "retained hierarchical lattice carries over " +
            std::to_string(kMaxHierarchicalStructures) +
            " structures (views + indexes); prune harder (max_views / "
            "query_mass / top_queries) or coarsen the hierarchy");
      }
    }

    out.view_sizes.reserve(nv);
    for (uint64_t id : view_ids) out.view_sizes.push_back(sizes[id]);
  }

  if (!pruning) lists = GatherViewQueries(provider, [](size_t, uint64_t) {});
  out.view_levels.reserve(provider.num_views());
  out.queries.reserve(provider.num_queries());
  BuildLatticeGraph(provider, lists, build, out.graph, &stats.build);
  if (pruning) {
    out.index_orders = std::move(orders);
    RecordSparseBuild(stats);
    out.sparse_stats = std::move(stats);
  }
  return out;
}

}  // namespace olapidx
