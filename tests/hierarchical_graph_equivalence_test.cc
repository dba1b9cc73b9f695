// Differential test for the fast hierarchical graph builder:
// TryBuildHierarchicalCubeGraph (the generic provider-parameterized core
// path — odometer answering-view enumeration, prefix-class index costing,
// sharded parallel edge emission, lazy index names) must produce a graph
// *identical* to BuildHierarchicalCubeGraphReference (the original serial
// triple loop) — same views, decoded key orders, rendered names, edge sets,
// and bit-exact costs — for every schema, workload, option set, and thread
// count. A second family of tests pins the degeneration: with one level
// per dimension the hierarchical builder must reproduce flat
// TryBuildCubeGraph bit-for-bit under the id complement mapping.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/cube_graph.h"
#include "hierarchy/hierarchical_graph.h"
#include "workload/workload.h"

namespace olapidx {
namespace {

// Exact equality everywhere: both builders must perform the same double
// divisions, so == (not NEAR) is the contract.
void ExpectIdenticalHGraphs(const HierarchicalCubeGraph& fast,
                            const HierarchicalCubeGraph& ref,
                            const std::string& label) {
  SCOPED_TRACE(label);
  const QueryViewGraph& f = fast.graph;
  const QueryViewGraph& r = ref.graph;
  ASSERT_EQ(f.num_views(), r.num_views());
  ASSERT_EQ(f.num_queries(), r.num_queries());
  ASSERT_EQ(f.num_structures(), r.num_structures());
  ASSERT_EQ(fast.view_sizes, ref.view_sizes);
  ASSERT_EQ(fast.all_levels, ref.all_levels);
  ASSERT_EQ(fast.fat_indexes_only, ref.fat_indexes_only);
  ASSERT_EQ(fast.view_levels.size(), ref.view_levels.size());
  for (size_t v = 0; v < fast.view_levels.size(); ++v) {
    ASSERT_EQ(fast.view_levels[v], ref.view_levels[v]) << "view " << v;
  }
  // The fast path stores no order lists; decode-on-demand must reproduce
  // the reference's eager lists exactly (and rank back to the position).
  ASSERT_TRUE(fast.index_orders.empty());
  for (uint32_t q = 0; q < f.num_queries(); ++q) {
    ASSERT_EQ(f.query_name(q), r.query_name(q)) << "query " << q;
    ASSERT_EQ(f.query_default_cost(q), r.query_default_cost(q));
    ASSERT_EQ(f.query_frequency(q), r.query_frequency(q));
    ASSERT_EQ(f.QueryViews(q), r.QueryViews(q)) << "query " << q;
  }
  for (uint32_t v = 0; v < f.num_views(); ++v) {
    SCOPED_TRACE("view " + std::to_string(v));
    ASSERT_EQ(f.view_name(v), r.view_name(v));
    ASSERT_EQ(f.view_space(v), r.view_space(v));
    ASSERT_EQ(f.num_indexes(v), r.num_indexes(v));
    ASSERT_EQ(f.structure_maintenance(StructureRef{v, StructureRef::kNoIndex}),
              r.structure_maintenance(StructureRef{v, StructureRef::kNoIndex}));
    for (int32_t k = 0; k < f.num_indexes(v); ++k) {
      // Lazy rendering (fast) must match the eagerly stored string (ref).
      ASSERT_EQ(f.index_name(v, k), r.index_name(v, k)) << "index " << k;
      ASSERT_EQ(f.index_space(v, k), r.index_space(v, k));
      ASSERT_EQ(f.structure_maintenance(StructureRef{v, k}),
                r.structure_maintenance(StructureRef{v, k}));
      const std::vector<int> order = fast.IndexOrderOf(v, k);
      ASSERT_EQ(order, ref.index_orders[v][static_cast<size_t>(k)])
          << "index " << k;
      ASSERT_EQ(fast.IndexPositionOf(v, order), k);
      ASSERT_EQ(ref.IndexPositionOf(v, order), k);
    }
    ASSERT_EQ(f.ViewQueries(v).size(), r.ViewQueries(v).size());
    const size_t nq = f.ViewQueries(v).size();
    for (size_t pos = 0; pos < nq; ++pos) {
      ASSERT_EQ(f.ViewQueries(v)[pos], r.ViewQueries(v)[pos])
          << "pos " << pos;
      ASSERT_EQ(f.ViewCostAt(v, pos), r.ViewCostAt(v, pos)) << "pos " << pos;
      for (int32_t k = 0; k < f.num_indexes(v); ++k) {
        ASSERT_EQ(f.IndexCostAt(v, k, pos), r.IndexCostAt(v, k, pos))
            << "index " << k << " pos " << pos;
      }
    }
  }
  ASSERT_EQ(f.DefaultTotalCost(), r.DefaultTotalCost());
}

void CheckEquivalence(const HierarchicalSchema& schema, double raw_rows,
                      const std::vector<WeightedHQuery>& workload,
                      HierarchicalGraphOptions options,
                      const std::string& label) {
  HierarchicalCubeGraph ref =
      BuildHierarchicalCubeGraphReference(schema, raw_rows, workload,
                                          options);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    options.num_threads = threads;
    StatusOr<HierarchicalCubeGraph> fast =
        TryBuildHierarchicalCubeGraph(schema, raw_rows, workload, options);
    ASSERT_TRUE(fast.ok()) << fast.status().ToString();
    ExpectIdenticalHGraphs(*fast, ref,
                           label + " threads=" + std::to_string(threads));
  }
}

// A random hierarchy: `n` dimensions, each with `min_levels`..`max_levels`
// levels of strictly shrinking cardinality.
HierarchicalSchema RandomSchema(Pcg32& rng, int n, int min_levels,
                                int max_levels) {
  std::vector<HierarchicalDimension> dims;
  for (int d = 0; d < n; ++d) {
    const int num_levels =
        min_levels +
        static_cast<int>(rng.Next() %
                         static_cast<uint32_t>(max_levels - min_levels + 1));
    uint64_t card = 100 + rng.Next() % 4000;
    std::vector<HierarchyLevel> levels;
    for (int l = 0; l < num_levels; ++l) {
      levels.push_back(HierarchyLevel{
          "d" + std::to_string(d) + "l" + std::to_string(l), card});
      card = std::max<uint64_t>(2, card / (2 + rng.Next() % 12));
    }
    dims.push_back(
        HierarchicalDimension{"d" + std::to_string(d), std::move(levels)});
  }
  return HierarchicalSchema(std::move(dims));
}

// A random workload: `count` queries drawn from the full query space, with
// occasional duplicates and zero frequencies.
std::vector<WeightedHQuery> RandomWorkload(Pcg32& rng,
                                           const HierarchicalSchema& schema,
                                           int count) {
  std::vector<WeightedHQuery> out;
  for (int i = 0; i < count; ++i) {
    std::vector<HDimRole> roles(
        static_cast<size_t>(schema.num_dimensions()));
    for (int d = 0; d < schema.num_dimensions(); ++d) {
      const auto radix =
          static_cast<uint32_t>(1 + 2 * schema.num_levels(d));
      const int choice = static_cast<int>(rng.Next() % radix);
      HDimRole& role = roles[static_cast<size_t>(d)];
      if (choice == 0) {
        role.kind = HDimRole::kAbsent;
      } else if (choice <= schema.num_levels(d)) {
        role.kind = HDimRole::kGroupBy;
        role.level = choice - 1;
      } else {
        role.kind = HDimRole::kSelect;
        role.level = choice - 1 - schema.num_levels(d);
      }
    }
    const double freq =
        (i % 9 == 0) ? 0.0 : 1.0 + static_cast<double>(rng.Next() % 5);
    out.push_back(WeightedHQuery{HSliceQuery(std::move(roles)), freq});
    if (i % 6 == 0 && !out.empty()) {
      out.push_back(WeightedHQuery{out.back().query, 2.0});  // duplicate
    }
  }
  return out;
}

TEST(HierarchicalGraphEquivalenceTest, DeepHierarchiesFullWorkload) {
  // The acceptance shape: ≥ 2 dimensions × ≥ 3 levels, every query.
  Pcg32 rng(7);
  for (int n = 2; n <= 3; ++n) {
    HierarchicalSchema schema = RandomSchema(rng, n, 3, 3);
    HierarchicalGraphOptions options;
    options.raw_scan_penalty = 2.0;
    CheckEquivalence(schema, 250'000.0, UniformHWorkload(schema), options,
                     "deep n=" + std::to_string(n));
  }
}

TEST(HierarchicalGraphEquivalenceTest, RandomSchemasAndWorkloads) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Pcg32 rng(seed);
    const int n = 2 + static_cast<int>(seed % 3);  // dims 2..4
    HierarchicalSchema schema = RandomSchema(rng, n, 1, 3);
    HierarchicalGraphOptions options;
    options.raw_scan_penalty = 1.0 + 0.5 * static_cast<double>(seed % 4);
    CheckEquivalence(schema, 1000.0 * static_cast<double>(1 + seed % 50),
                     RandomWorkload(rng, schema, 80), options,
                     "random seed=" + std::to_string(seed));
  }
}

TEST(HierarchicalGraphEquivalenceTest, AblationAllOrderedSubsetIndexes) {
  Pcg32 rng(19);
  for (int n = 2; n <= 3; ++n) {
    HierarchicalSchema schema = RandomSchema(rng, n, 2, 3);
    HierarchicalGraphOptions options;
    options.fat_indexes_only = false;
    options.raw_scan_penalty = 2.0;
    CheckEquivalence(schema, 60'000.0, RandomWorkload(rng, schema, 60),
                     options, "ablation n=" + std::to_string(n));
  }
}

TEST(HierarchicalGraphEquivalenceTest, MaintenanceAndCustomDefaultCost) {
  Pcg32 rng(23);
  HierarchicalSchema schema = RandomSchema(rng, 3, 2, 2);
  HierarchicalGraphOptions options;
  options.maintenance_per_row = 0.25;
  options.default_query_cost = 123456.0;
  CheckEquivalence(schema, 40'000.0, UniformHWorkload(schema), options,
                   "maintenance");
}

TEST(HierarchicalGraphEquivalenceTest, EmptyWorkloadStillBuildsStructures) {
  Pcg32 rng(31);
  HierarchicalSchema schema = RandomSchema(rng, 2, 3, 3);
  CheckEquivalence(schema, 10'000.0, {}, HierarchicalGraphOptions{},
                   "empty workload");
}

// ---- Degeneration: one level per dimension == the flat cube builder ----

// With a single proper level per dimension the hierarchical lattice is the
// flat 2^n lattice with complemented ids: hierarchical level digit 0
// (present) ↔ flat mask bit 1, digit 1 (ALL) ↔ bit 0, so hierarchical view
// h corresponds to flat view (2^n − 1) − h, and both index families list
// key orders in the same lexicographic rank order. Everything except the
// rendered names must agree bit-for-bit.
void CheckDegeneration(int n, bool fat_indexes_only, uint64_t seed,
                       double maintenance_per_row) {
  SCOPED_TRACE("degeneration n=" + std::to_string(n) +
               (fat_indexes_only ? " fat" : " ablation"));
  Pcg32 rng(seed);

  // One flat attribute per hierarchical dimension, same cardinalities.
  std::vector<HierarchicalDimension> hdims;
  std::vector<Dimension> fdims;
  for (int d = 0; d < n; ++d) {
    const uint64_t card = 4 + rng.Next() % 60;
    const std::string name = "a" + std::to_string(d);
    hdims.push_back(
        HierarchicalDimension{name, {HierarchyLevel{name, card}}});
    fdims.push_back(Dimension{name, card});
  }
  HierarchicalSchema hschema(std::move(hdims));
  CubeSchema fschema(fdims);
  const double raw_rows = 5'000.0 + static_cast<double>(rng.Next() % 50'000);

  // Identical view sizes on both sides: the hierarchical analytical sizes,
  // re-keyed by the complement mapping.
  HierarchicalLattice hlattice(&hschema);
  const std::vector<double> hsizes = hlattice.AnalyticalSizes(raw_rows);
  const uint32_t nv = static_cast<uint32_t>(hlattice.num_views());
  ASSERT_EQ(nv, 1u << n);
  ViewSizes fsizes(n);
  for (uint32_t h = 0; h < nv; ++h) {
    fsizes.Set(AttributeSet::FromMask((nv - 1) - h), hsizes[h]);
  }
  ASSERT_TRUE(fsizes.Complete());

  // The same workload on both sides, in the same order: every (group-by,
  // selection) pair of disjoint attribute sets, with random frequencies.
  Workload fworkload;
  std::vector<WeightedHQuery> hworkload;
  for (uint32_t all = 0; all < nv; ++all) {
    for (uint32_t sel = all;; sel = (sel - 1) & all) {
      const uint32_t group = all & ~sel;
      const double freq = 1.0 + static_cast<double>(rng.Next() % 7);
      fworkload.Add(SliceQuery(AttributeSet::FromMask(group),
                               AttributeSet::FromMask(sel)),
                    freq);
      std::vector<HDimRole> roles(static_cast<size_t>(n));
      for (int d = 0; d < n; ++d) {
        HDimRole& role = roles[static_cast<size_t>(d)];
        if ((sel >> d) & 1u) {
          role.kind = HDimRole::kSelect;
        } else if ((group >> d) & 1u) {
          role.kind = HDimRole::kGroupBy;
        } else {
          role.kind = HDimRole::kAbsent;
        }
        role.level = 0;
      }
      hworkload.push_back(
          WeightedHQuery{HSliceQuery(std::move(roles)), freq});
      if (sel == 0) break;
    }
  }

  CubeGraphOptions foptions;
  foptions.fat_indexes_only = fat_indexes_only;
  foptions.raw_scan_penalty = 2.0;
  foptions.maintenance_per_row = maintenance_per_row;
  HierarchicalGraphOptions hoptions;
  hoptions.fat_indexes_only = fat_indexes_only;
  hoptions.raw_scan_penalty = 2.0;
  hoptions.maintenance_per_row = maintenance_per_row;

  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    foptions.num_threads = threads;
    hoptions.num_threads = threads;
    StatusOr<CubeGraph> flat =
        TryBuildCubeGraph(fschema, fsizes, fworkload, foptions);
    ASSERT_TRUE(flat.ok()) << flat.status().ToString();
    StatusOr<HierarchicalCubeGraph> hier = TryBuildHierarchicalCubeGraph(
        hschema, raw_rows, hworkload, hoptions);
    ASSERT_TRUE(hier.ok()) << hier.status().ToString();
    const QueryViewGraph& fg = flat->graph;
    const QueryViewGraph& hg = hier->graph;
    ASSERT_EQ(fg.num_views(), hg.num_views());
    ASSERT_EQ(fg.num_queries(), hg.num_queries());
    ASSERT_EQ(fg.num_structures(), hg.num_structures());
    ASSERT_EQ(fg.DefaultTotalCost(), hg.DefaultTotalCost());
    for (uint32_t q = 0; q < fg.num_queries(); ++q) {
      ASSERT_EQ(fg.query_default_cost(q), hg.query_default_cost(q));
      ASSERT_EQ(fg.query_frequency(q), hg.query_frequency(q));
      // Query → view adjacency, under the complement id mapping.
      std::vector<uint32_t> mapped;
      for (uint32_t hv : hg.QueryViews(q)) mapped.push_back((nv - 1) - hv);
      std::sort(mapped.begin(), mapped.end());
      ASSERT_EQ(fg.QueryViews(q), mapped) << "query " << q;
    }
    for (uint32_t fv = 0; fv < nv; ++fv) {
      SCOPED_TRACE("flat view " + std::to_string(fv));
      const uint32_t hv = (nv - 1) - fv;
      ASSERT_EQ(fg.view_space(fv), hg.view_space(hv));
      ASSERT_EQ(fg.num_indexes(fv), hg.num_indexes(hv));
      ASSERT_EQ(
          fg.structure_maintenance(StructureRef{fv, StructureRef::kNoIndex}),
          hg.structure_maintenance(StructureRef{hv, StructureRef::kNoIndex}));
      for (int32_t k = 0; k < fg.num_indexes(fv); ++k) {
        // Rank k is the same key order on both sides: the flat key's
        // attribute sequence must equal the decoded dimension order.
        ASSERT_EQ(fg.index_key(fv, k).ToVector(), hier->IndexOrderOf(hv, k))
            << "index " << k;
        ASSERT_EQ(fg.index_space(fv, k), hg.index_space(hv, k));
        ASSERT_EQ(fg.structure_maintenance(StructureRef{fv, k}),
                  hg.structure_maintenance(StructureRef{hv, k}));
      }
      ASSERT_EQ(fg.ViewQueries(fv).size(), hg.ViewQueries(hv).size());
      const size_t nq = fg.ViewQueries(fv).size();
      for (size_t pos = 0; pos < nq; ++pos) {
        ASSERT_EQ(fg.ViewQueries(fv)[pos], hg.ViewQueries(hv)[pos])
            << "pos " << pos;
        ASSERT_EQ(fg.ViewCostAt(fv, pos), hg.ViewCostAt(hv, pos));
        for (int32_t k = 0; k < fg.num_indexes(fv); ++k) {
          ASSERT_EQ(fg.IndexCostAt(fv, k, pos), hg.IndexCostAt(hv, k, pos))
              << "index " << k << " pos " << pos;
        }
      }
    }
  }
}

TEST(HierarchicalGraphEquivalenceTest, DegenerationMatchesFlatFatIndexes) {
  for (int n = 1; n <= 4; ++n) {
    CheckDegeneration(n, /*fat_indexes_only=*/true,
                      /*seed=*/100 + static_cast<uint64_t>(n),
                      /*maintenance_per_row=*/0.0);
  }
}

TEST(HierarchicalGraphEquivalenceTest, DegenerationMatchesFlatAblation) {
  for (int n = 1; n <= 4; ++n) {
    CheckDegeneration(n, /*fat_indexes_only=*/false,
                      /*seed=*/200 + static_cast<uint64_t>(n),
                      /*maintenance_per_row=*/0.5);
  }
}

// ---- Status errors (satellite: no aborts on bad external input) ----

HierarchicalSchema TinySchema() {
  return HierarchicalSchema(
      {HierarchicalDimension{"a", {{"a0", 10}, {"a1", 4}}},
       HierarchicalDimension{"b", {{"b0", 6}}}});
}

TEST(HierarchicalGraphErrorTest, RejectsBadScalarOptions) {
  HierarchicalSchema schema = TinySchema();
  const std::vector<WeightedHQuery> w = UniformHWorkload(schema);
  EXPECT_EQ(TryBuildHierarchicalCubeGraph(schema, 0.5, w).status().code(),
            StatusCode::kInvalidArgument);
  HierarchicalGraphOptions bad_penalty;
  bad_penalty.raw_scan_penalty = 0.25;
  EXPECT_EQ(TryBuildHierarchicalCubeGraph(schema, 100.0, w, bad_penalty)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  HierarchicalGraphOptions bad_maintenance;
  bad_maintenance.maintenance_per_row = -1.0;
  EXPECT_EQ(TryBuildHierarchicalCubeGraph(schema, 100.0, w, bad_maintenance)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // NaN fails every range check, under both plans.
  HierarchicalGraphOptions nan_penalty;
  nan_penalty.raw_scan_penalty = std::nan("");
  EXPECT_EQ(TryBuildHierarchicalCubeGraph(schema, 100.0, w, nan_penalty)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  HierarchicalGraphOptions sparse_nan_penalty;
  sparse_nan_penalty.raw_scan_penalty = std::nan("");
  sparse_nan_penalty.pruning.emplace();
  EXPECT_EQ(TryBuildHierarchicalCubeGraph(schema, 100.0, w,
                                          sparse_nan_penalty)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      TryBuildHierarchicalCubeGraph(schema, std::nan(""), w).status().code(),
      StatusCode::kInvalidArgument);
}

TEST(HierarchicalGraphErrorTest, RejectsTooManyDimensions) {
  std::vector<HierarchicalDimension> dims;
  for (int d = 0; d < 9; ++d) {
    dims.push_back(
        HierarchicalDimension{"d" + std::to_string(d), {{"l0", 10}}});
  }
  HierarchicalSchema schema(std::move(dims));
  StatusOr<HierarchicalCubeGraph> fat =
      TryBuildHierarchicalCubeGraph(schema, 1000.0, {});
  EXPECT_EQ(fat.status().code(), StatusCode::kInvalidArgument);

  std::vector<HierarchicalDimension> seven;
  for (int d = 0; d < 7; ++d) {
    seven.push_back(
        HierarchicalDimension{"d" + std::to_string(d), {{"l0", 10}}});
  }
  HierarchicalSchema schema7(std::move(seven));
  HierarchicalGraphOptions ablation;
  ablation.fat_indexes_only = false;
  StatusOr<HierarchicalCubeGraph> all =
      TryBuildHierarchicalCubeGraph(schema7, 1000.0, {}, ablation);
  EXPECT_EQ(all.status().code(), StatusCode::kInvalidArgument);
}

TEST(HierarchicalGraphErrorTest, RejectsOversizedLattices) {
  // 8 dimensions × 5 levels: 6^8 ≈ 1.68M views > kMaxHierarchicalViews.
  std::vector<HierarchicalDimension> dims;
  for (int d = 0; d < 8; ++d) {
    std::vector<HierarchyLevel> levels;
    for (int l = 0; l < 5; ++l) {
      levels.push_back(
          HierarchyLevel{"l" + std::to_string(l),
                         static_cast<uint64_t>(1000 >> l) + 1});
    }
    dims.push_back(
        HierarchicalDimension{"d" + std::to_string(d), std::move(levels)});
  }
  HierarchicalSchema big(std::move(dims));
  StatusOr<HierarchicalCubeGraph> views =
      TryBuildHierarchicalCubeGraph(big, 1e6, {});
  EXPECT_EQ(views.status().code(), StatusCode::kInvalidArgument);

  // 8 dimensions × 2 levels: only 3^8 = 6561 views, but the 2^8 = 256
  // views with all 8 dimensions active carry 8! indexes each — over the
  // structure ceiling.
  std::vector<HierarchicalDimension> dims2;
  for (int d = 0; d < 8; ++d) {
    dims2.push_back(HierarchicalDimension{
        "d" + std::to_string(d), {{"fine", 100}, {"coarse", 10}}});
  }
  HierarchicalSchema wide(std::move(dims2));
  StatusOr<HierarchicalCubeGraph> structures =
      TryBuildHierarchicalCubeGraph(wide, 1e6, {});
  EXPECT_EQ(structures.status().code(), StatusCode::kInvalidArgument);
}

TEST(HierarchicalGraphErrorTest, RejectsMalformedWorkloads) {
  HierarchicalSchema schema = TinySchema();
  // Wrong number of roles.
  std::vector<WeightedHQuery> short_roles{
      WeightedHQuery{HSliceQuery({HDimRole{HDimRole::kGroupBy, 0}}), 1.0}};
  EXPECT_EQ(
      TryBuildHierarchicalCubeGraph(schema, 100.0, short_roles).status()
          .code(),
      StatusCode::kInvalidArgument);
  // Mentioned dimension at a non-proper level (select at ALL would break
  // column-class sharing; the builder must reject it up front).
  std::vector<WeightedHQuery> bad_level{WeightedHQuery{
      HSliceQuery({HDimRole{HDimRole::kSelect, 2},
                   HDimRole{HDimRole::kAbsent, 0}}),
      1.0}};
  EXPECT_EQ(
      TryBuildHierarchicalCubeGraph(schema, 100.0, bad_level).status()
          .code(),
      StatusCode::kInvalidArgument);
  // Negative frequency.
  std::vector<WeightedHQuery> bad_freq{WeightedHQuery{
      HSliceQuery({HDimRole{HDimRole::kGroupBy, 0},
                   HDimRole{HDimRole::kAbsent, 0}}),
      -2.0}};
  EXPECT_EQ(
      TryBuildHierarchicalCubeGraph(schema, 100.0, bad_freq).status().code(),
      StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace olapidx
