// Differential tests for the streaming edge-run sink: the enumeration
// shards spill their windows into the sink in whatever order the threads
// finish, so a build must produce a graph *bit-identical* to the
// single-threaded build — same accessor values and same fingerprint — for
// every thread count and index family. Also the unpruned
// sparse-hierarchical contract: with nothing pruned,
// TryBuildSparseHierarchicalCubeGraph must reproduce
// TryBuildHierarchicalCubeGraph exactly on random multi-level schemas.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/cube_graph.h"
#include "core/sparse_cube_graph.h"
#include "data/synthetic.h"
#include "hierarchy/hierarchical_graph.h"
#include "workload/workload.h"

namespace olapidx {
namespace {

// Exact equality through the public accessors (both builds must perform
// the same double divisions in the same order). Works for flat and
// hierarchical graphs alike — it only touches QueryViewGraph.
void ExpectIdenticalQvg(const QueryViewGraph& a, const QueryViewGraph& b,
                        const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(a.num_views(), b.num_views());
  ASSERT_EQ(a.num_queries(), b.num_queries());
  ASSERT_EQ(a.num_structures(), b.num_structures());
  for (uint32_t q = 0; q < a.num_queries(); ++q) {
    ASSERT_EQ(a.query_name(q), b.query_name(q)) << "query " << q;
    ASSERT_EQ(a.query_default_cost(q), b.query_default_cost(q));
    ASSERT_EQ(a.query_frequency(q), b.query_frequency(q));
    ASSERT_EQ(a.QueryViews(q), b.QueryViews(q)) << "query " << q;
  }
  for (uint32_t v = 0; v < a.num_views(); ++v) {
    SCOPED_TRACE("view " + std::to_string(v));
    ASSERT_EQ(a.view_name(v), b.view_name(v));
    ASSERT_EQ(a.view_space(v), b.view_space(v));
    ASSERT_EQ(a.num_indexes(v), b.num_indexes(v));
    for (int32_t k = 0; k < a.num_indexes(v); ++k) {
      ASSERT_EQ(a.index_name(v, k), b.index_name(v, k)) << "index " << k;
      ASSERT_EQ(a.index_space(v, k), b.index_space(v, k));
    }
    ASSERT_EQ(a.ViewQueries(v).size(), b.ViewQueries(v).size());
    const size_t nq = a.ViewQueries(v).size();
    for (size_t pos = 0; pos < nq; ++pos) {
      ASSERT_EQ(a.ViewQueries(v)[pos], b.ViewQueries(v)[pos])
          << "pos " << pos;
      ASSERT_EQ(a.ViewCostAt(v, pos), b.ViewCostAt(v, pos)) << "pos " << pos;
      for (int32_t k = 0; k < a.num_indexes(v); ++k) {
        ASSERT_EQ(a.IndexCostAt(v, k, pos), b.IndexCostAt(v, k, pos))
            << "index " << k << " pos " << pos;
      }
    }
  }
  ASSERT_EQ(a.DefaultTotalCost(), b.DefaultTotalCost());
}

TEST(StreamingEquivalenceTest, FlatSparseIdenticalAcrossThreadCounts) {
  // 12 dimensions with the default max_fat_dim = 6: narrow views carry
  // fat index families, wide views carry workload-derived candidate
  // families, so both ForEachIndexCostClass branches stream.
  SyntheticCube cube = UniformSyntheticCube(12, 100, 0.05);
  CubeLattice lattice(cube.schema);
  Workload workload = SampledZipfSliceQueries(lattice, 1.1, 150, 7);

  SparseCubeGraphOptions serial;
  serial.raw_scan_penalty = 2.0;
  serial.num_threads = 1;
  StatusOr<SparseCubeGraph> baseline =
      TryBuildSparseCubeGraph(cube.schema, cube.sizes, workload, serial);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  EXPECT_GT(baseline->stats.candidate_views, 0u);
  EXPECT_GT(baseline->stats.fat_views, 0u);

  for (size_t threads : {size_t{2}, size_t{8}}) {
    SparseCubeGraphOptions options = serial;
    options.num_threads = threads;
    StatusOr<SparseCubeGraph> run =
        TryBuildSparseCubeGraph(cube.schema, cube.sizes, workload, options);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    const std::string label = "threads=" + std::to_string(threads);
    ExpectIdenticalQvg(run->cube.graph, baseline->cube.graph, label);
    EXPECT_EQ(run->cube.graph.Fingerprint(),
              baseline->cube.graph.Fingerprint())
        << label;
    ASSERT_EQ(run->cube.view_attrs, baseline->cube.view_attrs);
    const QueryViewGraph& g = run->cube.graph;
    for (uint32_t v = 0; v < g.num_views(); ++v) {
      for (int32_t k = 0; k < g.num_indexes(v); ++k) {
        ASSERT_EQ(g.index_key(v, k), baseline->cube.graph.index_key(v, k))
            << label << " view " << v << " index " << k;
      }
    }
  }
}

HierarchicalSchema ThreeLevelSchema() {
  return HierarchicalSchema(
      {HierarchicalDimension{
           "store",
           {HierarchyLevel{"store", 200}, HierarchyLevel{"city", 40},
            HierarchyLevel{"region", 6}}},
       HierarchicalDimension{"product",
                             {HierarchyLevel{"product", 150},
                              HierarchyLevel{"category", 12}}},
       HierarchicalDimension{"time",
                             {HierarchyLevel{"day", 365},
                              HierarchyLevel{"month", 12}}}});
}

TEST(StreamingEquivalenceTest, HierarchicalSparseIdenticalAcrossThreadCounts) {
  HierarchicalSchema schema = ThreeLevelSchema();
  std::vector<WeightedHQuery> workload =
      SampledZipfHWorkload(schema, 120, 1.1, 5);

  SparseHierarchicalGraphOptions serial;
  serial.raw_scan_penalty = 2.0;
  serial.num_threads = 1;
  StatusOr<SparseHierarchicalCubeGraph> baseline =
      TryBuildSparseHierarchicalCubeGraph(schema, 1e6, workload, serial);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  for (size_t threads : {size_t{2}, size_t{8}}) {
    SparseHierarchicalGraphOptions options = serial;
    options.num_threads = threads;
    StatusOr<SparseHierarchicalCubeGraph> run =
        TryBuildSparseHierarchicalCubeGraph(schema, 1e6, workload, options);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    const std::string label = "threads=" + std::to_string(threads);
    ASSERT_EQ(run->hgraph.view_levels, baseline->hgraph.view_levels);
    ExpectIdenticalQvg(run->hgraph.graph, baseline->hgraph.graph, label);
    EXPECT_EQ(run->hgraph.graph.Fingerprint(),
              baseline->hgraph.graph.Fingerprint())
        << label;
  }
}

// A reproducible schema with 2–4 dimensions, 1–3 levels each, and
// strictly non-increasing per-level cardinalities.
HierarchicalSchema RandomSchema(uint64_t seed) {
  Pcg32 rng(seed);
  const int n = 2 + static_cast<int>(rng.NextBounded(3));
  std::vector<HierarchicalDimension> dims;
  for (int d = 0; d < n; ++d) {
    HierarchicalDimension dim;
    dim.name = "d" + std::to_string(d);
    const int levels = 1 + static_cast<int>(rng.NextBounded(3));
    uint64_t card = 20 + rng.NextBounded(200);
    for (int l = 0; l < levels; ++l) {
      dim.levels.push_back(HierarchyLevel{
          l == 0 ? dim.name : dim.name + "_l" + std::to_string(l), card});
      card = 1 + card / (2 + rng.NextBounded(4));
    }
    dims.push_back(std::move(dim));
  }
  return HierarchicalSchema(std::move(dims));
}

TEST(StreamingEquivalenceTest, SparseHierarchicalUnprunedMatchesDense) {
  for (uint64_t seed : {uint64_t{1}, uint64_t{17}, uint64_t{90210}}) {
    HierarchicalSchema schema = RandomSchema(seed);
    std::vector<WeightedHQuery> workload = UniformHWorkload(schema);

    HierarchicalGraphOptions dense_options;
    dense_options.raw_scan_penalty = 1.5;
    StatusOr<HierarchicalCubeGraph> dense =
        TryBuildHierarchicalCubeGraph(schema, 5e5, workload, dense_options);
    ASSERT_TRUE(dense.ok()) << dense.status().ToString();

    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      SparseHierarchicalGraphOptions options;
      options.raw_scan_penalty = 1.5;
      options.max_fat_dim = 8;  // every view fat: same family as dense
      options.num_threads = threads;
      StatusOr<SparseHierarchicalCubeGraph> sparse =
          TryBuildSparseHierarchicalCubeGraph(schema, 5e5, workload,
                                              options);
      ASSERT_TRUE(sparse.ok()) << sparse.status().ToString();
      const std::string label = "seed=" + std::to_string(seed) +
                                " threads=" + std::to_string(threads);
      SCOPED_TRACE(label);
      EXPECT_EQ(sparse->stats.retained_queries, workload.size());
      EXPECT_EQ(sparse->stats.retained_views,
                static_cast<size_t>(dense->graph.num_views()));
      EXPECT_FALSE(sparse->stats.view_cap_hit);
      ASSERT_EQ(sparse->hgraph.view_levels, dense->view_levels);
      ASSERT_EQ(sparse->hgraph.view_sizes, dense->view_sizes);
      ExpectIdenticalQvg(sparse->hgraph.graph, dense->graph, label);
    }
  }
}

}  // namespace
}  // namespace olapidx
