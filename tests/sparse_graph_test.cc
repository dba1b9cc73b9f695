// Differential and property tests for the workload-pruned sparse cube
// graph (core/sparse_cube_graph.h).
//
// The load-bearing contract: with nothing pruned (full query set,
// query_mass = 1, no caps, every view within max_fat_dim) the sparse
// build is *bit-identical* to TryBuildCubeGraph — same views, keys,
// names, edges, and the exact same double divisions. The candidate index
// families of wide views must preserve every query's best reachable cost.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/cube_graph.h"
#include "core/sparse_cube_graph.h"
#include "data/synthetic.h"
#include "workload/workload.h"

namespace olapidx {
namespace {

// Mirrors cube_graph_equivalence_test's checker; duplicated locally so
// the two differential suites stay independently editable.
void ExpectIdenticalGraphs(const CubeGraph& sparse, const CubeGraph& ref,
                           const std::string& label) {
  SCOPED_TRACE(label);
  const QueryViewGraph& f = sparse.graph;
  const QueryViewGraph& r = ref.graph;
  ASSERT_EQ(f.num_views(), r.num_views());
  ASSERT_EQ(f.num_queries(), r.num_queries());
  ASSERT_EQ(f.num_structures(), r.num_structures());
  ASSERT_EQ(sparse.view_attrs, ref.view_attrs);
  ASSERT_EQ(sparse.index_keys, ref.index_keys);
  ASSERT_EQ(sparse.queries.size(), ref.queries.size());
  for (size_t i = 0; i < sparse.queries.size(); ++i) {
    ASSERT_EQ(sparse.queries[i], ref.queries[i]) << "query " << i;
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
    for (int32_t k = 0; k < f.num_indexes(v); ++k) {
      ASSERT_EQ(f.index_name(v, k), r.index_name(v, k)) << "index " << k;
      ASSERT_EQ(f.index_space(v, k), r.index_space(v, k));
    }
    ASSERT_EQ(f.ViewQueries(v), r.ViewQueries(v));
    const size_t nq = f.ViewQueries(v).size();
    for (size_t pos = 0; pos < nq; ++pos) {
      ASSERT_EQ(f.ViewCostAt(v, pos), r.ViewCostAt(v, pos)) << "pos " << pos;
      for (int32_t k = 0; k < f.num_indexes(v); ++k) {
        ASSERT_EQ(f.IndexCostAt(v, k, pos), r.IndexCostAt(v, k, pos))
            << "index " << k << " pos " << pos;
      }
    }
  }
  ASSERT_EQ(f.DefaultTotalCost(), r.DefaultTotalCost());
}

SparseCubeGraphOptions UnprunedOptions(int n, double raw_penalty) {
  SparseCubeGraphOptions options;
  options.max_fat_dim = std::max(n, 1);
  options.raw_scan_penalty = raw_penalty;
  return options;
}

// Best cost query q can reach from ANY (view, index-or-scan) structure.
double BestReachableCost(const QueryViewGraph& g, uint32_t q) {
  double best = g.query_default_cost(q);
  for (uint32_t v : g.QueryViews(q)) {
    const std::vector<uint32_t>& queries = g.ViewQueries(v);
    const size_t pos = static_cast<size_t>(
        std::find(queries.begin(), queries.end(), q) - queries.begin());
    best = std::min(best, g.ViewCostAt(v, pos));
    for (int32_t k = 0; k < g.num_indexes(v); ++k) {
      best = std::min(best, g.IndexCostAt(v, k, pos));
    }
  }
  return best;
}

TEST(SparseGraphEquivalenceTest, UnprunedFullWorkloadMatchesDense) {
  for (int n = 1; n <= 6; ++n) {
    SyntheticCube cube = UniformSyntheticCube(n, 100, 0.05);
    CubeLattice lattice(cube.schema);
    Workload workload = AllSliceQueries(lattice);
    CubeGraphOptions dense_options;
    dense_options.raw_scan_penalty = 2.0;
    StatusOr<CubeGraph> dense =
        TryBuildCubeGraph(cube.schema, cube.sizes, workload, dense_options);
    ASSERT_TRUE(dense.ok()) << dense.status().ToString();

    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      SparseCubeGraphOptions options = UnprunedOptions(n, 2.0);
      options.num_threads = threads;
      StatusOr<SparseCubeGraph> sparse =
          TryBuildSparseCubeGraph(cube.schema, cube.sizes, workload, options);
      ASSERT_TRUE(sparse.ok()) << sparse.status().ToString();
      EXPECT_EQ(sparse->stats.retained_queries, workload.size());
      EXPECT_EQ(sparse->stats.retained_views, size_t{1} << n);
      EXPECT_EQ(sparse->stats.candidate_views, 0u);
      ExpectIdenticalGraphs(sparse->cube, *dense,
                            "n=" + std::to_string(n) +
                                " threads=" + std::to_string(threads));
    }
  }
}

TEST(SparseGraphEquivalenceTest, CandidateFamiliesPreserveBestCosts) {
  // Force candidate families everywhere (max_fat_dim = 0 keeps only the
  // apex fat) and compare each query's best reachable cost against the
  // all-fat build: the workload-derived keys must not lose any optimum.
  SyntheticCube cube = UniformSyntheticCube(5, 60, 0.1);
  CubeLattice lattice(cube.schema);
  Workload workload = ZipfSliceQueries(lattice, 1.05, 3);
  SparseCubeGraphOptions fat = UnprunedOptions(5, 2.0);
  SparseCubeGraphOptions lean = fat;
  lean.max_fat_dim = 0;
  StatusOr<SparseCubeGraph> full =
      TryBuildSparseCubeGraph(cube.schema, cube.sizes, workload, fat);
  StatusOr<SparseCubeGraph> pruned =
      TryBuildSparseCubeGraph(cube.schema, cube.sizes, workload, lean);
  ASSERT_TRUE(full.ok() && pruned.ok());
  EXPECT_GT(pruned->stats.candidate_views, 0u);
  EXPECT_LT(pruned->cube.graph.num_structures(),
            full->cube.graph.num_structures());
  ASSERT_EQ(full->cube.graph.num_queries(), pruned->cube.graph.num_queries());
  for (uint32_t q = 0; q < full->cube.graph.num_queries(); ++q) {
    EXPECT_EQ(BestReachableCost(full->cube.graph, q),
              BestReachableCost(pruned->cube.graph, q))
        << "query " << q;
  }
}

TEST(SparseGraphEquivalenceTest, QueryPruningRespectsMassAndCap) {
  SyntheticCube cube = UniformSyntheticCube(4, 100, 0.05);
  CubeLattice lattice(cube.schema);
  Workload workload = ZipfSliceQueries(lattice, 1.2, 11);

  SparseCubeGraphOptions by_mass = UnprunedOptions(4, 2.0);
  by_mass.query_mass = 0.9;
  StatusOr<SparseCubeGraph> massed =
      TryBuildSparseCubeGraph(cube.schema, cube.sizes, workload, by_mass);
  ASSERT_TRUE(massed.ok());
  EXPECT_LT(massed->stats.retained_queries, workload.size());
  EXPECT_GE(massed->stats.retained_mass, 0.9 * massed->stats.total_mass);
  EXPECT_EQ(massed->cube.graph.num_queries(),
            massed->stats.retained_queries);

  SparseCubeGraphOptions by_count = UnprunedOptions(4, 2.0);
  by_count.top_queries = 10;
  StatusOr<SparseCubeGraph> capped =
      TryBuildSparseCubeGraph(cube.schema, cube.sizes, workload, by_count);
  ASSERT_TRUE(capped.ok());
  EXPECT_EQ(capped->stats.retained_queries, 10u);
  // The 10 hottest queries survive: no retained frequency may be beaten
  // by a dropped one.
  double min_kept = std::numeric_limits<double>::infinity();
  for (uint32_t q = 0; q < capped->cube.graph.num_queries(); ++q) {
    min_kept = std::min(min_kept, capped->cube.graph.query_frequency(q));
  }
  std::vector<double> all;
  for (const WeightedQuery& wq : workload.queries()) {
    all.push_back(wq.frequency);
  }
  std::sort(all.begin(), all.end(), std::greater<>());
  EXPECT_GE(min_kept, all[9]);
}

TEST(SparseGraphEquivalenceTest, ViewCapKeepsMinimalViews) {
  // Few queries on a big cube: their minimal views are a handful of
  // masks, so the superset cones overflow a small cap.
  SyntheticCube cube = UniformSyntheticCube(8, 50, 1e-4);
  CubeLattice lattice(cube.schema);
  Workload workload = SampledZipfSliceQueries(lattice, 1.1, 4, 5);
  SparseCubeGraphOptions options;
  options.max_fat_dim = 3;
  options.raw_scan_penalty = 2.0;
  options.max_views = 8;  // far below the superset cones
  StatusOr<SparseCubeGraph> sparse =
      TryBuildSparseCubeGraph(cube.schema, cube.sizes, workload, options);
  ASSERT_TRUE(sparse.ok());
  EXPECT_TRUE(sparse->stats.view_cap_hit);
  // Cap or not, every query keeps its minimal view (and thus at least one
  // answering view): benefit is degraded, never correctness.
  const QueryViewGraph& g = sparse->cube.graph;
  for (uint32_t q = 0; q < g.num_queries(); ++q) {
    EXPECT_FALSE(g.QueryViews(q).empty()) << "query " << q;
  }
}

TEST(SparseGraphEquivalenceTest, TwelveDimensionSmoke) {
  // The point of the sparse path: a build that is impossible densely.
  SyntheticCube cube = UniformSyntheticCube(12, 30, 1e-6);
  CubeLattice lattice(cube.schema);
  Workload workload = SampledZipfSliceQueries(lattice, 1.1, 200, 42);
  ASSERT_EQ(workload.size(), 200u);
  StatusOr<SparseCubeGraph> sparse =
      TryBuildSparseCubeGraph(cube.schema, cube.sizes, workload, {});
  ASSERT_TRUE(sparse.ok()) << sparse.status().ToString();
  const QueryViewGraph& g = sparse->cube.graph;
  EXPECT_TRUE(g.finalized());
  EXPECT_EQ(g.num_queries(), 200u);
  EXPECT_GT(g.num_views(), 200u);
  EXPECT_GT(sparse->stats.build.peak_bytes, 0u);
  EXPECT_GT(sparse->stats.candidate_views, 0u);
  // Sampled workloads are deterministic in the seed.
  Workload again = SampledZipfSliceQueries(lattice, 1.1, 200, 42);
  for (size_t i = 0; i < workload.size(); ++i) {
    EXPECT_EQ(workload[i].query, again[i].query);
    EXPECT_EQ(workload[i].frequency, again[i].frequency);
  }
}

TEST(FlatGraphErrorTest, RejectsBadScalarOptions) {
  // Both flat entry points share one range check, written !(x >= bound) so
  // NaN is rejected too.
  SyntheticCube cube = UniformSyntheticCube(3, 10, 0.5);
  Workload w;
  w.Add(SliceQuery(AttributeSet::Of({0}), AttributeSet::Of({1})));
  auto expect_rejected = [&](const std::string& knob, auto set_knob) {
    CubeGraphOptions dense;
    SparseCubeGraphOptions sparse;
    set_knob(dense);
    set_knob(sparse);
    for (const Status& status :
         {TryBuildCubeGraph(cube.schema, cube.sizes, w, dense).status(),
          TryBuildSparseCubeGraph(cube.schema, cube.sizes, w, sparse)
              .status()}) {
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << knob;
      EXPECT_NE(status.message().find(knob), std::string::npos)
          << status.ToString();
    }
  };
  const double nan = std::nan("");
  for (double bad : {0.5, nan}) {
    expect_rejected("raw_scan_penalty",
                    [&](auto& options) { options.raw_scan_penalty = bad; });
  }
  for (double bad : {-1.0, nan}) {
    expect_rejected("maintenance_per_row",
                    [&](auto& options) { options.maintenance_per_row = bad; });
    expect_rejected("default_query_cost",
                    [&](auto& options) { options.default_query_cost = bad; });
  }
}

}  // namespace
}  // namespace olapidx
