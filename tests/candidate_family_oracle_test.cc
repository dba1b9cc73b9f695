// Oracle for the flat sparse build's candidate index families
// (core/pruning_policy.h, core/sparse_cube_graph.cc). The build gathers
// each wide view's selection classes from the retained queries' cones;
// here every retained view's keys are recomputed the direct way — each
// retained query tested at each retained view — and must match exactly,
// in order, in the graph, the keys' one owner. A
// pinned fingerprint ties one fixed dim-12 sparse graph to the value it
// had before the gather moved to the cones.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/sparse_cube_graph.h"
#include "data/synthetic.h"
#include "workload/workload.h"

namespace olapidx {
namespace {

// The prefix-first key order of selection class `prefix` at `view_mask`.
std::vector<int> PrefixFirstOrder(uint32_t prefix, uint32_t view_mask) {
  std::vector<int> order;
  for (int a = 0; a < kMaxDimensions; ++a) {
    if ((prefix >> a) & 1u) order.push_back(a);
  }
  for (int a = 0; a < kMaxDimensions; ++a) {
    if (((view_mask & ~prefix) >> a) & 1u) order.push_back(a);
  }
  return order;
}

// The views × queries family of a wide view: one prefix-first key per
// distinct non-empty selection ∩ view over the retained queries
// answerable there, sorted and deduplicated.
std::vector<std::vector<int>> OracleFamily(
    const std::vector<SliceQuery>& queries, AttributeSet view) {
  std::vector<std::vector<int>> family;
  for (const SliceQuery& q : queries) {
    if (!q.AllAttributes().IsSubsetOf(view)) continue;
    const AttributeSet cls = q.selection().Intersect(view);
    if (cls.empty()) continue;
    family.push_back(PrefixFirstOrder(cls.mask(), view.mask()));
  }
  std::sort(family.begin(), family.end());
  family.erase(std::unique(family.begin(), family.end()), family.end());
  return family;
}

// The gather's enumeration: each retained query with a selection walks
// its cone once, by the shorter of its superset walk (2^free positions)
// and the retained-view scan; nothing when no view is wide.
uint64_t OracleConeVisits(const SparseCubeGraph& sparse, int n) {
  if (sparse.stats.candidate_views == 0) return 0;
  const uint64_t nv = sparse.stats.retained_views;
  uint64_t visits = 0;
  for (const SliceQuery& q : sparse.cube.queries) {
    if (q.selection().empty()) continue;
    const uint64_t walk = uint64_t{1} << (n - q.AllAttributes().size());
    visits += std::min(walk, nv);
  }
  return visits;
}

void ExpectOracleFamilies(const SparseCubeGraph& sparse,
                          const CubeLattice& lattice, int max_fat_dim) {
  const CubeGraph& cube = sparse.cube;
  size_t candidate_views = 0;
  uint64_t candidate_indexes = 0;
  for (uint32_t v = 0; v < cube.view_attrs.size(); ++v) {
    const AttributeSet view = cube.view_attrs[v];
    SCOPED_TRACE("view " + std::string(cube.graph.view_name(v)));
    std::vector<std::vector<int>> want;
    if (view.size() <= max_fat_dim) {
      for (const IndexKey& key : lattice.FatIndexes(lattice.ViewOf(view))) {
        want.push_back(key.ToVector());
      }
    } else {
      ++candidate_views;
      want = OracleFamily(cube.queries, view);
      candidate_indexes += want.size();
    }
    std::vector<std::vector<int>> got;
    for (int32_t k = 0; k < cube.graph.num_indexes(v); ++k) {
      got.push_back(cube.graph.index_key(v, k).ToVector());
    }
    ASSERT_EQ(got, want);
  }
  EXPECT_EQ(sparse.stats.candidate_views, candidate_views);
  EXPECT_EQ(sparse.stats.fat_views, cube.view_attrs.size() - candidate_views);
  EXPECT_EQ(sparse.stats.candidate_indexes, candidate_indexes);
}

// A sampled Zipf workload plus a few selection-free queries, which add no
// class anywhere.
Workload OracleWorkload(const CubeLattice& lattice, size_t num_queries,
                        uint64_t seed) {
  Workload workload =
      SampledZipfSliceQueries(lattice, 1.1, num_queries, seed);
  const int n = lattice.num_dimensions();
  workload.Add(SliceQuery(AttributeSet::Of({0, 1}), AttributeSet()), 5.0);
  workload.Add(SliceQuery(AttributeSet::Of({n - 1}), AttributeSet()), 3.0);
  workload.Add(SliceQuery(AttributeSet(), AttributeSet()), 1.0);
  return workload;
}

struct OracleCase {
  int n;
  size_t queries;
  uint64_t seed;
};

TEST(CandidateFamilyOracleTest, ConeGatherMatchesViewsTimesQueries) {
  const OracleCase cases[] = {
      {10, 120, 3}, {12, 150, 5}, {16, 80, 7}, {20, 24, 11}};
  for (const OracleCase& c : cases) {
    SyntheticCube cube = RandomSyntheticCube(c.n, 5, 200, 1e-3, c.seed);
    CubeLattice lattice(cube.schema);
    const Workload workload = OracleWorkload(lattice, c.queries, c.seed);
    // Every view wide, or wide and fat views mixed. The default of 6 runs
    // on the pinned graph below; here its 720-key fat families would only
    // slow the check.
    for (int max_fat_dim : {0, 3}) {
      // The default cap binds only at dims 16 and 20; 64 binds always.
      for (size_t max_views : {size_t{1} << 16, size_t{64}}) {
        SCOPED_TRACE("n=" + std::to_string(c.n) +
                     " max_fat_dim=" + std::to_string(max_fat_dim) +
                     " max_views=" + std::to_string(max_views));
        SparseCubeGraphOptions options;
        options.max_fat_dim = max_fat_dim;
        options.max_views = max_views;
        options.raw_scan_penalty = 2.0;
        StatusOr<SparseCubeGraph> sparse = TryBuildSparseCubeGraph(
            cube.schema, cube.sizes, workload, options);
        ASSERT_TRUE(sparse.ok()) << sparse.status().ToString();
        if (max_views == 64) {
          EXPECT_TRUE(sparse->stats.view_cap_hit);
        } else if (c.n <= 12) {
          EXPECT_FALSE(sparse->stats.view_cap_hit);
        }
        EXPECT_GT(sparse->stats.candidate_views, 0u);
        ExpectOracleFamilies(*sparse, lattice, max_fat_dim);
        EXPECT_EQ(sparse->stats.family_cone_visits,
                  OracleConeVisits(*sparse, c.n));
      }
    }
  }
}

TEST(CandidateFamilyOracleTest, NoWideViewsGatherNothing) {
  SyntheticCube cube = RandomSyntheticCube(6, 5, 200, 1e-2, 13);
  CubeLattice lattice(cube.schema);
  SparseCubeGraphOptions options;
  options.max_fat_dim = 6;
  StatusOr<SparseCubeGraph> sparse = TryBuildSparseCubeGraph(
      cube.schema, cube.sizes, OracleWorkload(lattice, 60, 13), options);
  ASSERT_TRUE(sparse.ok()) << sparse.status().ToString();
  EXPECT_EQ(sparse->stats.candidate_views, 0u);
  EXPECT_EQ(sparse->stats.family_cone_visits, 0u);
  ExpectOracleFamilies(*sparse, lattice, 6);
}

// One fixed dim-12 sparse graph, pinned bit for bit: its fingerprint
// covers every name, space and cost, so any change to the keys, their
// order or the costs they carry moves it.
TEST(CandidateFamilyOracleTest, PinnedDimTwelveFingerprint) {
  SyntheticCube cube = UniformSyntheticCube(12, 30, 1e-6);
  CubeLattice lattice(cube.schema);
  const Workload workload = SampledZipfSliceQueries(lattice, 1.1, 200, 42);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    SparseCubeGraphOptions options;
    options.raw_scan_penalty = 2.0;
    options.num_threads = threads;
    StatusOr<SparseCubeGraph> sparse =
        TryBuildSparseCubeGraph(cube.schema, cube.sizes, workload, options);
    ASSERT_TRUE(sparse.ok()) << sparse.status().ToString();
    EXPECT_EQ(sparse->cube.graph.Fingerprint(), 0x7067c6efd8ed3d5fULL)
        << "threads " << threads;
    EXPECT_EQ(sparse->stats.candidate_indexes, 5445u);
    ExpectOracleFamilies(*sparse, lattice, options.max_fat_dim);
  }
}

}  // namespace
}  // namespace olapidx
