// Oracle for the view-retention policy (core/pruning_policy.h): dropping
// the views outside every retained query's superset cone loses nothing.
// On partial workloads, with no caps and every view fat, the sparse graph
// must equal the dense graph over the same workload restricted to the
// retained views — same names, spaces, index families and adjacency, and
// bit-equal costs — and every view it drops must answer no query in the
// dense graph. Views are matched through their attribute set (flat) or
// level vector (hierarchical), not through graph ids, which differ.

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

// Compares sparse view `s` with dense view `d` of graphs over the same
// queries: structures, adjacency and every cost, exactly.
void ExpectSameView(const QueryViewGraph& sparse, uint32_t s,
                    const QueryViewGraph& dense, uint32_t d) {
  SCOPED_TRACE("sparse view " + std::to_string(s) + " = dense view " +
               std::to_string(d));
  ASSERT_EQ(sparse.view_name(s), dense.view_name(d));
  ASSERT_EQ(sparse.view_space(s), dense.view_space(d));
  ASSERT_EQ(sparse.num_indexes(s), dense.num_indexes(d));
  for (int32_t k = 0; k < sparse.num_indexes(s); ++k) {
    ASSERT_EQ(sparse.index_name(s, k), dense.index_name(d, k)) << "index " << k;
    ASSERT_EQ(sparse.index_space(s, k), dense.index_space(d, k));
  }
  ASSERT_EQ(sparse.ViewQueries(s).size(), dense.ViewQueries(d).size());
  for (size_t pos = 0; pos < sparse.ViewQueries(s).size(); ++pos) {
    ASSERT_EQ(sparse.ViewQueries(s)[pos], dense.ViewQueries(d)[pos])
        << "pos " << pos;
    ASSERT_EQ(sparse.ViewCostAt(s, pos), dense.ViewCostAt(d, pos));
    for (int32_t k = 0; k < sparse.num_indexes(s); ++k) {
      ASSERT_EQ(sparse.IndexCostAt(s, k, pos), dense.IndexCostAt(d, k, pos))
          << "index " << k << " pos " << pos;
    }
  }
}

// The query side and the dropped views; `dense_id_of[s]` is the dense id
// of sparse view s. Returns the number of views dropped.
size_t ExpectRestriction(const QueryViewGraph& sparse,
                         const QueryViewGraph& dense,
                         const std::vector<uint32_t>& dense_id_of) {
  EXPECT_EQ(sparse.num_queries(), dense.num_queries());
  for (uint32_t q = 0; q < sparse.num_queries(); ++q) {
    EXPECT_EQ(sparse.query_name(q), dense.query_name(q)) << "query " << q;
    EXPECT_EQ(sparse.query_default_cost(q), dense.query_default_cost(q));
    EXPECT_EQ(sparse.query_frequency(q), dense.query_frequency(q));
  }
  std::vector<bool> kept(dense.num_views(), false);
  for (uint32_t d : dense_id_of) kept[d] = true;
  size_t dropped = 0;
  for (uint32_t d = 0; d < dense.num_views(); ++d) {
    if (kept[d]) continue;
    ++dropped;
    EXPECT_TRUE(dense.ViewQueries(d).empty())
        << "dropped view " << dense.view_name(d) << " answers a query";
  }
  return dropped;
}

TEST(ViewRetentionOracleTest, FlatSparseIsDenseRestrictedToRetainedViews) {
  size_t cases = 0;
  size_t dropped = 0;
  for (int n = 2; n <= 7; ++n) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " seed=" + std::to_string(seed));
      SyntheticCube cube = RandomSyntheticCube(n, 5, 60, 0.05, seed);
      CubeLattice lattice(cube.schema);
      const Workload all = ZipfSliceQueries(lattice, 1.1, seed);
      Workload workload;  // every fifth query, from a seed-dependent offset
      for (size_t i = seed % 5; i < all.size(); i += 5) {
        workload.Add(all[i].query, all[i].frequency);
      }

      CubeGraphOptions dense_options;
      dense_options.raw_scan_penalty = 2.0;
      StatusOr<CubeGraph> dense = TryBuildCubeGraph(
          cube.schema, cube.sizes, workload, dense_options);
      ASSERT_TRUE(dense.ok()) << dense.status().ToString();
      SparseCubeGraphOptions sparse_options;
      sparse_options.raw_scan_penalty = 2.0;
      sparse_options.max_fat_dim = n;  // every view fat
      StatusOr<SparseCubeGraph> sparse = TryBuildSparseCubeGraph(
          cube.schema, cube.sizes, workload, sparse_options);
      ASSERT_TRUE(sparse.ok()) << sparse.status().ToString();
      EXPECT_EQ(sparse->stats.retained_queries, workload.size());
      EXPECT_FALSE(sparse->stats.view_cap_hit);
      EXPECT_EQ(sparse->stats.candidate_views, 0u);

      // Dense flat view ids are attribute masks.
      const CubeGraph& s = sparse->cube;
      std::vector<uint32_t> dense_id_of;
      for (uint32_t v = 0; v < s.graph.num_views(); ++v) {
        const uint32_t d = s.view_attrs[v].mask();
        ASSERT_EQ(dense->view_attrs[d], s.view_attrs[v]);
        for (int32_t k = 0; k < s.graph.num_indexes(v); ++k) {
          ASSERT_EQ(dense->graph.index_key(d, k), s.graph.index_key(v, k));
        }
        ExpectSameView(s.graph, v, dense->graph, d);
        dense_id_of.push_back(d);
      }
      for (uint32_t q = 0; q < s.graph.num_queries(); ++q) {
        std::vector<uint32_t> mapped;
        for (uint32_t v : s.graph.QueryViews(q)) {
          mapped.push_back(dense_id_of[v]);
        }
        EXPECT_EQ(mapped, dense->graph.QueryViews(q)) << "query " << q;
      }
      dropped += ExpectRestriction(s.graph, dense->graph, dense_id_of);
      ++cases;
    }
  }
  EXPECT_EQ(cases, 36u);
  EXPECT_GT(dropped, 0u);  // the oracle must see views dropped
}

// 2–4 dimensions with 1–3 levels each, cardinalities shrinking per level.
HierarchicalSchema RandomSchema(Pcg32& rng) {
  const int n = 2 + static_cast<int>(rng.NextBounded(3));
  std::vector<HierarchicalDimension> dims;
  for (int d = 0; d < n; ++d) {
    HierarchicalDimension dim;
    dim.name = "d" + std::to_string(d);
    const int levels = 1 + static_cast<int>(rng.NextBounded(3));
    uint64_t card = 20 + rng.NextBounded(200);
    for (int l = 0; l < levels; ++l) {
      dim.levels.push_back(
          HierarchyLevel{dim.name + "_l" + std::to_string(l), card});
      card = 1 + card / (2 + rng.NextBounded(4));
    }
    dims.push_back(std::move(dim));
  }
  return HierarchicalSchema(std::move(dims));
}

TEST(ViewRetentionOracleTest,
     HierarchicalSparseIsDenseRestrictedToRetainedViews) {
  size_t dropped = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Pcg32 rng(seed);
    HierarchicalSchema schema = RandomSchema(rng);
    const std::vector<WeightedHQuery> all = UniformHWorkload(schema);
    std::vector<WeightedHQuery> workload;
    for (size_t i = seed % 5; i < all.size(); i += 5) {
      workload.push_back(
          WeightedHQuery{all[i].query, 1.0 + static_cast<double>(i % 7)});
    }

    HierarchicalGraphOptions dense_options;
    dense_options.raw_scan_penalty = 1.5;
    StatusOr<HierarchicalCubeGraph> dense =
        TryBuildHierarchicalCubeGraph(schema, 2e5, workload, dense_options);
    ASSERT_TRUE(dense.ok()) << dense.status().ToString();
    HierarchicalGraphOptions sparse_options;
    sparse_options.raw_scan_penalty = 1.5;
    sparse_options.pruning.emplace().max_fat_dim = 8;  // every view fat
    StatusOr<HierarchicalCubeGraph> sparse =
        TryBuildHierarchicalCubeGraph(schema, 2e5, workload, sparse_options);
    ASSERT_TRUE(sparse.ok()) << sparse.status().ToString();
    ASSERT_TRUE(sparse->sparse_stats.has_value());
    EXPECT_EQ(sparse->sparse_stats->retained_queries, workload.size());
    EXPECT_FALSE(sparse->sparse_stats->view_cap_hit);
    EXPECT_EQ(sparse->sparse_stats->candidate_views, 0u);

    // Dense hierarchical view ids are lattice ids.
    const HierarchicalLattice lattice(&schema);
    const HierarchicalCubeGraph& s = *sparse;
    std::vector<uint32_t> dense_id_of;
    for (uint32_t v = 0; v < s.graph.num_views(); ++v) {
      const auto d = static_cast<uint32_t>(lattice.IdOf(s.view_levels[v]));
      ASSERT_EQ(dense->view_levels[d], s.view_levels[v]);
      ASSERT_EQ(dense->view_sizes[d], s.view_sizes[v]);
      for (int32_t k = 0; k < s.graph.num_indexes(v); ++k) {
        ASSERT_EQ(dense->IndexOrderOf(d, k), s.IndexOrderOf(v, k));
      }
      ExpectSameView(s.graph, v, dense->graph, d);
      dense_id_of.push_back(d);
    }
    for (uint32_t q = 0; q < s.graph.num_queries(); ++q) {
      std::vector<uint32_t> mapped;
      for (uint32_t v : s.graph.QueryViews(q)) {
        mapped.push_back(dense_id_of[v]);
      }
      EXPECT_EQ(mapped, dense->graph.QueryViews(q)) << "query " << q;
    }
    dropped += ExpectRestriction(s.graph, dense->graph, dense_id_of);
  }
  EXPECT_GT(dropped, 0u);  // the oracle must see views dropped
}

}  // namespace
}  // namespace olapidx
