// Differential test for the fast cube-graph builder: TryBuildCubeGraph
// (superset enumeration + prefix-class index costing + sharded parallel
// edge emission + lazy names) must produce a graph *identical* to
// BuildCubeGraphReference (the original serial triple loop) — same views,
// index keys, rendered names, edge sets, and bit-exact costs — for every
// workload, size distribution, option set, and thread count.

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/cube_graph.h"
#include "data/synthetic.h"
#include "workload/workload.h"

namespace olapidx {
namespace {

// Exact equality everywhere: both builders must perform the same double
// divisions in the same order, so == (not NEAR) is the contract.
void ExpectIdenticalGraphs(const CubeGraph& fast, const CubeGraph& ref,
                           const std::string& label) {
  SCOPED_TRACE(label);
  const QueryViewGraph& f = fast.graph;
  const QueryViewGraph& r = ref.graph;
  ASSERT_EQ(f.num_views(), r.num_views());
  ASSERT_EQ(f.num_queries(), r.num_queries());
  ASSERT_EQ(f.num_structures(), r.num_structures());
  ASSERT_EQ(fast.view_attrs, ref.view_attrs);
  ASSERT_EQ(fast.queries.size(), ref.queries.size());
  for (size_t i = 0; i < fast.queries.size(); ++i) {
    ASSERT_EQ(fast.queries[i], ref.queries[i]) << "query " << i;
  }
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
      ASSERT_EQ(f.index_key(v, k), r.index_key(v, k)) << "index " << k;
      ASSERT_EQ(f.index_name(v, k), r.index_name(v, k)) << "index " << k;
      ASSERT_EQ(f.index_space(v, k), r.index_space(v, k));
      ASSERT_EQ(f.structure_maintenance(StructureRef{v, k}),
                r.structure_maintenance(StructureRef{v, k}));
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

void CheckEquivalence(const SyntheticCube& cube, const Workload& workload,
                      CubeGraphOptions options, const std::string& label) {
  CubeGraph ref =
      BuildCubeGraphReference(cube.schema, cube.sizes, workload, options);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    options.num_threads = threads;
    StatusOr<CubeGraph> fast =
        TryBuildCubeGraph(cube.schema, cube.sizes, workload, options);
    ASSERT_TRUE(fast.ok()) << fast.status().ToString();
    ExpectIdenticalGraphs(*fast, ref,
                          label + " threads=" + std::to_string(threads));
  }
}

TEST(CubeGraphEquivalenceTest, FullSliceWorkloadAllDims) {
  for (int n = 1; n <= 5; ++n) {
    SyntheticCube cube = UniformSyntheticCube(n, 100, 0.05);
    CubeLattice lattice(cube.schema);
    CubeGraphOptions options;
    options.raw_scan_penalty = 2.0;
    CheckEquivalence(cube, AllSliceQueries(lattice), options,
                     "uniform n=" + std::to_string(n));
  }
}

TEST(CubeGraphEquivalenceTest, RandomCubesAndZipfWorkloads) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const int n = 3 + static_cast<int>(seed % 3);  // dims 3..5
    SyntheticCube cube = RandomSyntheticCube(n, 4, 5000, 0.1, seed);
    CubeLattice lattice(cube.schema);
    CubeGraphOptions options;
    options.raw_scan_penalty = 1.0 + 0.5 * static_cast<double>(seed % 4);
    CheckEquivalence(cube, ZipfSliceQueries(lattice, 1.1, seed), options,
                     "random seed=" + std::to_string(seed));
  }
}

TEST(CubeGraphEquivalenceTest, AblationAllOrderedSubsetIndexes) {
  for (int n = 2; n <= 4; ++n) {
    SyntheticCube cube =
        RandomSyntheticCube(n, 8, 400, 0.2, static_cast<uint64_t>(77 + n));
    CubeLattice lattice(cube.schema);
    CubeGraphOptions options;
    options.fat_indexes_only = false;
    options.raw_scan_penalty = 2.0;
    CheckEquivalence(cube, AllSliceQueries(lattice), options,
                     "ablation n=" + std::to_string(n));
  }
}

TEST(CubeGraphEquivalenceTest, MaintenanceAndCustomDefaultCost) {
  SyntheticCube cube = UniformSyntheticCube(4, 50, 0.1);
  CubeLattice lattice(cube.schema);
  CubeGraphOptions options;
  options.maintenance_per_row = 0.25;
  options.default_query_cost = 123456.0;
  CheckEquivalence(cube, AllSliceQueries(lattice), options, "maintenance");
}

TEST(CubeGraphEquivalenceTest, ApexSizeAboveOneKeepsEmptyPrefixClasses) {
  // SizeOf(∅) > 1 makes the empty-prefix class cost |C|/|∅| < scan, so the
  // permutations whose first attribute is not a selection attribute gain
  // real edges — the fast path must not skip them unconditionally.
  SyntheticCube cube = UniformSyntheticCube(3, 64, 0.5);
  cube.sizes.Set(AttributeSet(), 3.0);
  CubeLattice lattice(cube.schema);
  CubeGraphOptions options;
  options.raw_scan_penalty = 2.0;
  CheckEquivalence(cube, AllSliceQueries(lattice), options, "apex>1");
}

TEST(CubeGraphEquivalenceTest, SubsetWorkloadsAndDuplicateQueries) {
  // Workloads that do not cover all 3^n queries, contain duplicates, and
  // carry zero frequencies.
  SyntheticCube cube = RandomSyntheticCube(5, 10, 1000, 0.05, 9);
  Workload workload;
  Pcg32 rng(42);
  for (int i = 0; i < 40; ++i) {
    uint32_t all = rng.Next() & 31u;
    uint32_t sel = rng.Next() & all;
    workload.Add(SliceQuery(AttributeSet::FromMask(all & ~sel),
                            AttributeSet::FromMask(sel)),
                 (i % 7 == 0) ? 0.0 : 1.0 + static_cast<double>(i % 3));
  }
  // Duplicate the first few queries verbatim.
  for (int i = 0; i < 5; ++i) {
    workload.Add(workload[static_cast<size_t>(i)].query, 2.0);
  }
  CubeGraphOptions options;
  options.raw_scan_penalty = 1.5;
  CheckEquivalence(cube, workload, options, "subset workload");
}

TEST(CubeGraphEquivalenceTest, EmptyWorkloadStillBuildsStructures) {
  SyntheticCube cube = UniformSyntheticCube(3, 16, 0.5);
  CheckEquivalence(cube, Workload(), CubeGraphOptions{}, "empty workload");
}

TEST(CubeGraphEquivalenceTest, ExplicitPaperModelSeamIsBitIdentical) {
  // Routing costs through the CostModel seam with an explicit
  // PaperCostModel must reproduce both the default (nullptr) build and
  // the hard-coded |C|/|E| reference, division for division.
  for (uint64_t seed : {uint64_t{1}, uint64_t{5}}) {
    SyntheticCube cube = RandomSyntheticCube(4, 6, 2000, 0.1, seed);
    CubeLattice lattice(cube.schema);
    Workload workload = ZipfSliceQueries(lattice, 1.0, seed);
    CubeGraphOptions defaults;
    defaults.raw_scan_penalty = 2.0;
    CubeGraphOptions seamed = defaults;
    seamed.cost_model = std::make_shared<PaperCostModel>();

    StatusOr<CubeGraph> base =
        TryBuildCubeGraph(cube.schema, cube.sizes, workload, defaults);
    StatusOr<CubeGraph> via_seam =
        TryBuildCubeGraph(cube.schema, cube.sizes, workload, seamed);
    ASSERT_TRUE(base.ok() && via_seam.ok());
    ExpectIdenticalGraphs(*via_seam, *base,
                          "seam vs default seed=" + std::to_string(seed));
    CubeGraph ref =
        BuildCubeGraphReference(cube.schema, cube.sizes, workload, defaults);
    ExpectIdenticalGraphs(*via_seam, ref,
                          "seam vs reference seed=" + std::to_string(seed));
  }
}

}  // namespace
}  // namespace olapidx
