// Metamorphic invariances of the selection algorithms: transformations of
// the input that provably must not change the picked set.
//
//  * Frequency duplication — listing a query twice at frequency f is the
//    same workload as listing it once at 2f (every benefit term becomes
//    f·x + f·x vs 2f·x, which is exact in floating point for adjacent
//    duplicates), so picks, τ, and benefit are identical.
//  * Uniform scaling — multiplying every space, every edge cost, and the
//    budget by the same power of two leaves every greedy benefit/space
//    ratio untouched (both scale by λ), so the pick sequence is identical
//    and τ, benefit, and space scale exactly by λ.
//  * Workload permutation — reordering the queries renumbers query ids
//    but the candidate tie-break (ratio, then view id, then enumeration
//    rank) never consults them. On a cube whose sizes are powers of two
//    every cost and benefit is an exact integer, so reordering the
//    benefit summation cannot shift a single ulp — picks and τ must be
//    bit-identical, not merely close.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/cube_graph.h"
#include "cost/calibrated_cost_model.h"
#include "core/inner_greedy.h"
#include "core/r_greedy.h"
#include "data/synthetic.h"
#include "workload/workload.h"

namespace olapidx {
namespace {

// The three algorithms every invariance is checked for.
SelectionResult RunAlgo(int algo, const QueryViewGraph& g, double budget) {
  switch (algo) {
    case 0:
      return RGreedy(g, budget, RGreedyOptions{.r = 1});
    case 1:
      return RGreedy(g, budget, RGreedyOptions{.r = 2});
    default:
      return InnerLevelGreedy(g, budget);
  }
}

void ExpectSamePicks(const SelectionResult& a, const SelectionResult& b,
                     const std::string& what) {
  ASSERT_EQ(a.picks.size(), b.picks.size()) << what;
  for (size_t i = 0; i < a.picks.size(); ++i) {
    EXPECT_TRUE(a.picks[i] == b.picks[i]) << what << " pick " << i;
  }
}

class MetamorphicTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MetamorphicTest, FrequencyDuplicationInvariance) {
  SyntheticCube cube = RandomSyntheticCube(3, 5, 500, 0.05, GetParam());
  CubeLattice lattice(cube.schema);
  Workload base = AllSliceQueries(lattice);

  Workload duplicated;
  Workload doubled;
  for (const WeightedQuery& wq : base.queries()) {
    duplicated.Add(wq.query, wq.frequency);
    duplicated.Add(wq.query, wq.frequency);
    doubled.Add(wq.query, 2.0 * wq.frequency);
  }

  CubeGraphOptions opts;
  opts.raw_scan_penalty = 2.0;
  StatusOr<CubeGraph> dup = TryBuildCubeGraph(
      cube.schema, cube.sizes, duplicated, opts);
  ASSERT_TRUE(dup.ok()) << dup.status().ToString();
  StatusOr<CubeGraph> dbl = TryBuildCubeGraph(
      cube.schema, cube.sizes, doubled, opts);
  ASSERT_TRUE(dbl.ok()) << dbl.status().ToString();
  double budget = 0.2 * (cube.sizes.TotalViewSpace() +
                         cube.sizes.TotalFatIndexSpace());

  for (int algo = 0; algo < 3; ++algo) {
    SelectionResult a = RunAlgo(algo, dup->graph, budget);
    SelectionResult b = RunAlgo(algo, dbl->graph, budget);
    ASSERT_TRUE(a.status.ok());
    ASSERT_TRUE(b.status.ok());
    EXPECT_FALSE(a.picks.empty()) << "algo " << algo;
    ExpectSamePicks(a, b, "algo " + std::to_string(algo));
    // τ is identical up to summation order: f·x + f·x rounds like 2f·x
    // term by term, but the running cross-term partial sums may differ in
    // the last ulps.
    EXPECT_NEAR(a.final_cost, b.final_cost,
                1e-12 * (1.0 + a.final_cost))
        << "algo " << algo;
    EXPECT_NEAR(a.Benefit(), b.Benefit(), 1e-12 * (1.0 + a.Benefit()))
        << "algo " << algo;
  }
}

// One random instance description, built once and instantiated at any
// scale so the two graphs differ by exactly the multiplier.
struct GraphSpec {
  struct View {
    uint64_t space;
    std::vector<uint64_t> index_spaces;
  };
  struct Edge {
    uint32_t query, view;
    int32_t index;  // StructureRef::kNoIndex for a view edge
    uint64_t cost;
  };
  std::vector<View> views;
  std::vector<std::pair<uint64_t, uint64_t>> queries;  // (T_i, f_i)
  std::vector<Edge> edges;
};

GraphSpec RandomSpec(uint64_t seed) {
  Pcg32 rng(seed);
  GraphSpec spec;
  uint32_t num_views = 3 + rng.NextBounded(3);
  for (uint32_t v = 0; v < num_views; ++v) {
    GraphSpec::View view{1 + rng.NextBounded(20), {}};
    uint32_t num_indexes = rng.NextBounded(3);
    for (uint32_t i = 0; i < num_indexes; ++i) {
      view.index_spaces.push_back(1 + rng.NextBounded(20));
    }
    spec.views.push_back(std::move(view));
  }
  uint32_t num_queries = 4 + rng.NextBounded(5);
  for (uint32_t q = 0; q < num_queries; ++q) {
    spec.queries.emplace_back(80 + rng.NextBounded(41),
                              1 + rng.NextBounded(3));
    for (uint32_t v = 0; v < num_views; ++v) {
      if (rng.NextBounded(4) == 0) continue;
      uint64_t scan = 10 + rng.NextBounded(60);
      spec.edges.push_back({q, v, StructureRef::kNoIndex, scan});
      for (size_t k = 0; k < spec.views[v].index_spaces.size(); ++k) {
        if (rng.NextBounded(2) == 0) {
          spec.edges.push_back(
              {q, v, static_cast<int32_t>(k),
               1 + rng.NextBounded(static_cast<uint32_t>(scan))});
        }
      }
    }
  }
  return spec;
}

QueryViewGraph Instantiate(const GraphSpec& spec, double scale) {
  QueryViewGraph g;
  for (size_t v = 0; v < spec.views.size(); ++v) {
    g.AddView("v" + std::to_string(v),
              scale * static_cast<double>(spec.views[v].space));
    for (size_t k = 0; k < spec.views[v].index_spaces.size(); ++k) {
      g.AddIndex(static_cast<uint32_t>(v),
                 "i" + std::to_string(v) + "_" + std::to_string(k),
                 scale * static_cast<double>(spec.views[v].index_spaces[k]));
    }
  }
  for (size_t q = 0; q < spec.queries.size(); ++q) {
    g.AddQuery("q" + std::to_string(q),
               scale * static_cast<double>(spec.queries[q].first),
               static_cast<double>(spec.queries[q].second));
  }
  for (const GraphSpec::Edge& e : spec.edges) {
    if (e.index == StructureRef::kNoIndex) {
      g.AddViewEdge(e.query, e.view, scale * static_cast<double>(e.cost));
    } else {
      g.AddIndexEdge(e.query, e.view, e.index,
                     scale * static_cast<double>(e.cost));
    }
  }
  g.Finalize();
  return g;
}

TEST_P(MetamorphicTest, UniformScalingInvariance) {
  GraphSpec spec = RandomSpec(GetParam());
  constexpr double kScale = 8.0;  // power of two: scaling is exact
  QueryViewGraph unit = Instantiate(spec, 1.0);
  QueryViewGraph scaled = Instantiate(spec, kScale);

  for (double budget : {3.0, 10.0, 30.0}) {
    for (int algo = 0; algo < 3; ++algo) {
      SelectionResult a = RunAlgo(algo, unit, budget);
      SelectionResult b = RunAlgo(algo, scaled, kScale * budget);
      ASSERT_TRUE(a.status.ok());
      ASSERT_TRUE(b.status.ok());
      ExpectSamePicks(a, b, "algo " + std::to_string(algo) + " budget " +
                                std::to_string(budget));
      EXPECT_DOUBLE_EQ(b.final_cost, kScale * a.final_cost);
      EXPECT_DOUBLE_EQ(b.Benefit(), kScale * a.Benefit());
      EXPECT_DOUBLE_EQ(b.space_used, kScale * a.space_used);
    }
  }
}

TEST_P(MetamorphicTest, WorkloadPermutationInvariance) {
  // Power-of-two sizes make every edge cost (a ratio of sizes) and every
  // benefit term an exact integer, so even the floating-point summation
  // order cannot distinguish the permuted workloads.
  constexpr int kDims = 3;
  std::vector<Dimension> dims;
  for (int a = 0; a < kDims; ++a) {
    dims.push_back(Dimension{std::string(1, static_cast<char>('a' + a)),
                             16});
  }
  CubeSchema schema(dims);
  CubeLattice lattice(schema);
  ViewSizes sizes(kDims);
  for (uint32_t v = 0; v < lattice.num_views(); ++v) {
    AttributeSet attrs = lattice.AttrsOf(v);
    sizes.Set(attrs, static_cast<double>(
                         uint64_t{1} << (4 * attrs.ToVector().size())));
  }

  // Frequencies are a function of the query itself (not of its position),
  // so each permutation carries identical weights.
  std::vector<WeightedQuery> weighted;
  Workload all = AllSliceQueries(lattice);
  for (const WeightedQuery& wq : all.queries()) {
    weighted.push_back(WeightedQuery{
        wq.query,
        1.0 + static_cast<double>(wq.query.AllAttributes().ToVector()
                                      .size())});
  }
  Workload forward{weighted};
  std::reverse(weighted.begin(), weighted.end());
  Workload reversed{weighted};
  Pcg32 rng(GetParam());
  for (size_t i = weighted.size(); i > 1; --i) {
    std::swap(weighted[i - 1],
              weighted[rng.NextBounded(static_cast<uint32_t>(i))]);
  }
  Workload shuffled{weighted};

  CubeGraphOptions opts;
  opts.raw_scan_penalty = 2.0;
  StatusOr<CubeGraph> fwd = TryBuildCubeGraph(schema, sizes, forward, opts);
  ASSERT_TRUE(fwd.ok()) << fwd.status().ToString();
  StatusOr<CubeGraph> rev = TryBuildCubeGraph(schema, sizes, reversed, opts);
  ASSERT_TRUE(rev.ok()) << rev.status().ToString();
  StatusOr<CubeGraph> shuf = TryBuildCubeGraph(schema, sizes, shuffled, opts);
  ASSERT_TRUE(shuf.ok()) << shuf.status().ToString();
  double budget = 0.25 * (sizes.TotalViewSpace() +
                          sizes.TotalFatIndexSpace());

  for (int algo = 0; algo < 3; ++algo) {
    SelectionResult a = RunAlgo(algo, fwd->graph, budget);
    SelectionResult b = RunAlgo(algo, rev->graph, budget);
    SelectionResult c = RunAlgo(algo, shuf->graph, budget);
    ASSERT_TRUE(a.status.ok());
    EXPECT_FALSE(a.picks.empty()) << "algo " << algo;
    ExpectSamePicks(a, b, "reversed, algo " + std::to_string(algo));
    ExpectSamePicks(a, c, "shuffled, algo " + std::to_string(algo));
    EXPECT_EQ(a.final_cost, b.final_cost) << "algo " << algo;
    EXPECT_EQ(a.final_cost, c.final_cost) << "algo " << algo;
    EXPECT_EQ(a.space_used, b.space_used) << "algo " << algo;
  }
}

// ---------------------------------------------------------------------------
// The same invariances under the calibrated cost model (the CostModel
// seam): dyadic coefficients keep every cost term exact in floating
// point, so the bit-exact contracts carry over unchanged.
// ---------------------------------------------------------------------------

// per_row, per_node, and fixed all powers of two: with power-of-two view
// sizes every ScanCost/IndexCost is a dyadic rational computed exactly.
std::shared_ptr<const CalibratedCostModel> DyadicModel(double scale = 1.0) {
  return std::make_shared<CalibratedCostModel>(CalibrationCoefficients{
      2.0 * scale, 128.0 * scale, 1024.0 * scale});
}

TEST_P(MetamorphicTest, CalibratedModelPermutationInvariance) {
  constexpr int kDims = 3;
  std::vector<Dimension> dims;
  for (int a = 0; a < kDims; ++a) {
    dims.push_back(Dimension{std::string(1, static_cast<char>('a' + a)),
                             16});
  }
  CubeSchema schema(dims);
  CubeLattice lattice(schema);
  ViewSizes sizes(kDims);
  for (uint32_t v = 0; v < lattice.num_views(); ++v) {
    AttributeSet attrs = lattice.AttrsOf(v);
    sizes.Set(attrs, static_cast<double>(
                         uint64_t{1} << (4 * attrs.ToVector().size())));
  }
  std::vector<WeightedQuery> weighted;
  Workload all = AllSliceQueries(lattice);
  for (const WeightedQuery& wq : all.queries()) {
    weighted.push_back(WeightedQuery{
        wq.query,
        1.0 + static_cast<double>(wq.query.AllAttributes().ToVector()
                                      .size())});
  }
  Workload forward{weighted};
  Pcg32 rng(GetParam());
  for (size_t i = weighted.size(); i > 1; --i) {
    std::swap(weighted[i - 1],
              weighted[rng.NextBounded(static_cast<uint32_t>(i))]);
  }
  Workload shuffled{weighted};

  CubeGraphOptions opts;
  opts.raw_scan_penalty = 2.0;
  opts.cost_model = DyadicModel();
  StatusOr<CubeGraph> fwd = TryBuildCubeGraph(schema, sizes, forward, opts);
  ASSERT_TRUE(fwd.ok()) << fwd.status().ToString();
  StatusOr<CubeGraph> shuf = TryBuildCubeGraph(schema, sizes, shuffled, opts);
  ASSERT_TRUE(shuf.ok()) << shuf.status().ToString();
  double budget = 0.25 * (sizes.TotalViewSpace() +
                          sizes.TotalFatIndexSpace());
  for (int algo = 0; algo < 3; ++algo) {
    SelectionResult a = RunAlgo(algo, fwd->graph, budget);
    SelectionResult c = RunAlgo(algo, shuf->graph, budget);
    ASSERT_TRUE(a.status.ok());
    EXPECT_FALSE(a.picks.empty()) << "algo " << algo;
    ExpectSamePicks(a, c, "calibrated shuffled, algo " +
                              std::to_string(algo));
    EXPECT_EQ(a.final_cost, c.final_cost) << "algo " << algo;
    EXPECT_EQ(a.space_used, c.space_used) << "algo " << algo;
  }
}

TEST_P(MetamorphicTest, CalibratedCoefficientScalingInvariance) {
  // Scaling all three coefficients by one power of two scales every edge
  // cost (and the default cost) by exactly that factor while spaces stay
  // put, so the pick sequence is bit-identical and τ scales exactly.
  SyntheticCube cube = RandomSyntheticCube(3, 5, 512, 0.1, GetParam());
  // Power-of-two sizes keep the dyadic-exactness argument airtight.
  CubeLattice lattice(cube.schema);
  for (uint32_t v = 0; v < lattice.num_views(); ++v) {
    AttributeSet attrs = lattice.AttrsOf(v);
    cube.sizes.Set(attrs, static_cast<double>(
                              uint64_t{1}
                              << (3 * attrs.ToVector().size())));
  }
  Workload workload = AllSliceQueries(lattice);
  constexpr double kScale = 8.0;

  CubeGraphOptions unit_opts;
  unit_opts.raw_scan_penalty = 2.0;
  unit_opts.cost_model = DyadicModel();
  CubeGraphOptions scaled_opts = unit_opts;
  scaled_opts.cost_model = DyadicModel(kScale);
  StatusOr<CubeGraph> unit = TryBuildCubeGraph(
      cube.schema, cube.sizes, workload, unit_opts);
  ASSERT_TRUE(unit.ok()) << unit.status().ToString();
  StatusOr<CubeGraph> scaled = TryBuildCubeGraph(
      cube.schema, cube.sizes, workload, scaled_opts);
  ASSERT_TRUE(scaled.ok()) << scaled.status().ToString();
  double budget = 0.25 * (cube.sizes.TotalViewSpace() +
                          cube.sizes.TotalFatIndexSpace());
  for (int algo = 0; algo < 3; ++algo) {
    SelectionResult a = RunAlgo(algo, unit->graph, budget);
    SelectionResult b = RunAlgo(algo, scaled->graph, budget);
    ASSERT_TRUE(a.status.ok());
    ASSERT_TRUE(b.status.ok());
    EXPECT_FALSE(a.picks.empty()) << "algo " << algo;
    ExpectSamePicks(a, b, "coefficient scaling, algo " +
                              std::to_string(algo));
    EXPECT_DOUBLE_EQ(b.final_cost, kScale * a.final_cost)
        << "algo " << algo;
    EXPECT_EQ(a.space_used, b.space_used) << "algo " << algo;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetamorphicTest,
                         ::testing::Range<uint64_t>(1, 9));

}  // namespace
}  // namespace olapidx
