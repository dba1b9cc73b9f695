// Differential test oracle: three independent implementations of the same
// semantics are checked against each other on randomized small instances.
//
//  1. Engine vs analytical model. On a fully materialized random cube
//     (every view, every fat index, exact sizes) the linear cost model's
//     predictions are not estimates — they are exact. The planner's chosen
//     cost must equal an independently computed minimum over all access
//     paths, and the *measured* rows-processed, summed over the full
//     cross-product of selection constants, must hit the closed-form count
//     implied by |V| / |E| (each view row is touched once per combination
//     of the non-prefix selection values).
//
//  2. Greedy vs exhaustive optimal. On random unit-space graphs (the
//     setting of Theorem 5.1) and on small cube graphs, r-greedy and
//     inner-level greedy can never beat branch-and-bound, and their
//     benefit must respect the Section 5 guarantee against the proven
//     optimum at the space they actually used — checked per run, not just
//     in aggregate.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/cube_graph.h"
#include "cost/calibrated_cost_model.h"
#include "core/guarantees.h"
#include "core/inner_greedy.h"
#include "core/optimal.h"
#include "core/r_greedy.h"
#include "cost/linear_cost_model.h"
#include "data/fact_generator.h"
#include "data/synthetic.h"
#include "engine/executor.h"
#include "workload/workload.h"

namespace olapidx {
namespace {

class DifferentialTest : public ::testing::TestWithParam<uint64_t> {};

// ---------------------------------------------------------------------------
// Part 1: executor vs linear cost model.
// ---------------------------------------------------------------------------

TEST_P(DifferentialTest, ExecutorAgreesWithLinearCostModel) {
  uint64_t seed = GetParam();
  Pcg32 rng(seed);

  int n = 2 + static_cast<int>(seed % 2);  // 2 or 3 dimensions
  std::vector<Dimension> dims;
  for (int a = 0; a < n; ++a) {
    dims.push_back(Dimension{std::string(1, static_cast<char>('a' + a)),
                             2 + rng.NextBounded(4)});
  }
  CubeSchema schema(dims);
  FactTable fact =
      GenerateUniformFacts(schema, 60 + rng.NextBounded(140), seed * 31);
  Catalog catalog(&fact);
  CubeLattice lattice(schema);

  // Materialize everything: with every view present, every index prefix
  // resolves to an exactly materialized view, so the planner's estimates
  // coincide with the model on exact sizes.
  ViewSizes sizes(n);
  for (uint32_t v = 0; v < lattice.num_views(); ++v) {
    AttributeSet attrs = lattice.AttrsOf(v);
    sizes.Set(attrs, static_cast<double>(catalog.MaterializeView(attrs)));
    for (const IndexKey& key : lattice.FatIndexes(v)) {
      ASSERT_TRUE(catalog.BuildIndex(attrs, key).ok());
    }
  }
  LinearCostModel model(&sizes);
  Executor executor(&catalog);

  Workload all = AllSliceQueries(lattice);
  for (const WeightedQuery& wq : all.queries()) {
    const SliceQuery& q = wq.query;

    // Independent minimum over every access path the planner may use.
    double best = static_cast<double>(fact.num_rows());  // raw scan
    for (uint32_t v = 0; v < lattice.num_views(); ++v) {
      AttributeSet attrs = lattice.AttrsOf(v);
      if (!q.AnswerableFrom(attrs)) continue;
      best = std::min(best, model.ScanCost(attrs));
      for (const IndexKey& key : lattice.FatIndexes(v)) {
        best = std::min(best, model.QueryCost(q, attrs, key));
      }
    }

    std::vector<Executor::PlanChoice> plans = executor.Explain(q);
    ASSERT_FALSE(plans.empty());
    ASSERT_TRUE(plans.front().chosen);
    EXPECT_DOUBLE_EQ(plans.front().estimated_cost, best)
        << q.ToString(schema.names()) << " seed " << seed;

    // Enumerate the full cross-product of selection constants and sum the
    // measured rows. With E the index prefix actually usable for q, each
    // row of the chosen table is touched for exactly |combos| / domain(E)
    // of the combinations, so the sum is a closed-form integer — an exact
    // measured-cost identity, no averaging.
    std::vector<int> sel = q.selection().ToVector();
    uint64_t combos = 1;
    for (int a : sel) combos *= schema.dimension(a).cardinality;

    std::vector<uint32_t> values(sel.size(), 0);
    uint64_t measured_sum = 0;
    ExecutionStats stats;
    for (uint64_t c = 0; c < combos; ++c) {
      executor.Execute(q, values, &stats);
      EXPECT_DOUBLE_EQ(stats.estimated_cost, best);
      measured_sum += stats.rows_processed;
      for (size_t i = 0; i < values.size(); ++i) {  // odometer
        if (++values[i] <
            static_cast<uint32_t>(schema.dimension(sel[i]).cardinality)) {
          break;
        }
        values[i] = 0;
      }
    }

    uint64_t table_rows = stats.used_raw
                              ? fact.num_rows()
                              : catalog.view(stats.view).num_rows();
    AttributeSet prefix = stats.index.LongestSelectionPrefix(q.selection());
    uint64_t prefix_domain = 1;
    for (int a : prefix.ToVector()) {
      prefix_domain *= schema.dimension(a).cardinality;
    }
    ASSERT_EQ(combos % prefix_domain, 0u);  // prefix ⊆ selection
    EXPECT_EQ(measured_sum, table_rows * (combos / prefix_domain))
        << q.ToString(schema.names()) << " seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Part 2: greedy vs exhaustive optimal.
// ---------------------------------------------------------------------------

// A random graph with unit structure sizes — the setting in which Theorem
// 5.1's bound is stated (benefit vs the optimum at the space used).
QueryViewGraph RandomUnitGraph(uint64_t seed) {
  Pcg32 rng(seed);
  QueryViewGraph g;
  uint32_t num_views = 2 + rng.NextBounded(3);
  for (uint32_t v = 0; v < num_views; ++v) {
    g.AddView("v" + std::to_string(v), 1.0);
    uint32_t num_indexes = rng.NextBounded(4);
    for (uint32_t i = 0; i < num_indexes; ++i) {
      g.AddIndex(v, "i" + std::to_string(v) + "_" + std::to_string(i), 1.0);
    }
  }
  uint32_t num_queries = 3 + rng.NextBounded(5);
  for (uint32_t qi = 0; qi < num_queries; ++qi) {
    uint32_t q = g.AddQuery("q" + std::to_string(qi), 100.0,
                            1.0 + rng.NextBounded(3));
    for (uint32_t v = 0; v < num_views; ++v) {
      if (rng.NextBounded(5) >= 3) continue;
      double scan = 20.0 + rng.NextBounded(81);
      g.AddViewEdge(q, v, scan);
      for (int32_t k = 0; k < g.num_indexes(v); ++k) {
        if (rng.NextBounded(2) == 0) {
          g.AddIndexEdge(q, v, k,
                         1.0 + rng.NextBounded(static_cast<uint32_t>(scan)));
        }
      }
    }
  }
  g.Finalize();
  return g;
}

TEST_P(DifferentialTest, GreedyRespectsOptimalAndGuaranteeOnUnitGraphs) {
  QueryViewGraph g = RandomUnitGraph(GetParam());
  for (double budget : {1.0, 2.0, 4.0, 7.0}) {
    for (int r = 1; r <= 3; ++r) {
      SelectionResult greedy = RGreedy(g, budget, RGreedyOptions{.r = r});
      ASSERT_TRUE(greedy.status.ok());
      SelectionResult opt = BranchAndBoundOptimal(g, greedy.space_used);
      ASSERT_TRUE(opt.proven_optimal);
      // τ can never undercut the exhaustive optimum at the same space...
      EXPECT_LE(opt.final_cost,
                greedy.final_cost + 1e-9 * (1.0 + greedy.final_cost))
          << "r " << r << " budget " << budget;
      // ...and the benefit respects the per-run Theorem 5.1 bound.
      EXPECT_GE(greedy.Benefit(),
                RGreedyGuarantee(r) * opt.Benefit() - 1e-6)
          << "r " << r << " budget " << budget;
    }
    SelectionResult inner = InnerLevelGreedy(g, budget);
    ASSERT_TRUE(inner.status.ok());
    SelectionResult opt = BranchAndBoundOptimal(g, inner.space_used);
    ASSERT_TRUE(opt.proven_optimal);
    EXPECT_LE(opt.final_cost,
              inner.final_cost + 1e-9 * (1.0 + inner.final_cost));
    EXPECT_GE(inner.Benefit(), InnerLevelGuarantee() * opt.Benefit() - 1e-6)
        << "budget " << budget;
  }
}

TEST_P(DifferentialTest, GreedyTauDominatedByOptimalOnSmallCubes) {
  uint64_t seed = GetParam();
  // n = 2 keeps branch-and-bound exhaustive over all 8 structures; the
  // non-unit spaces mean Theorem 5.1 no longer applies, but optimality
  // domination must still hold.
  SyntheticCube cube = RandomSyntheticCube(2, 3, 50, 0.2, seed);
  CubeLattice lattice(cube.schema);
  CubeGraphOptions opts;
  opts.raw_scan_penalty = 2.0;
  StatusOr<CubeGraph> cg = TryBuildCubeGraph(cube.schema, cube.sizes,
                                             AllSliceQueries(lattice), opts);
  ASSERT_TRUE(cg.ok()) << cg.status().ToString();
  double total = cube.sizes.TotalViewSpace() +
                 cube.sizes.TotalFatIndexSpace();
  // The greedy loop runs while SpaceUsed() < budget, so its final pick may
  // overshoot the nominal budget (the paper's "until the space is
  // consumed" semantics). The fair exhaustive baseline is therefore the
  // optimum at the space each run actually used, exactly as in the
  // unit-graph test above. The relative slack on that space keeps the
  // solver from rejecting greedy's own pick set when its depth-first
  // summation order rounds one ulp above greedy's incremental sum.
  auto baseline_space = [](const SelectionResult& run) {
    return run.space_used * (1.0 + 1e-12);
  };
  for (double frac : {0.15, 0.4, 0.8}) {
    double budget = frac * total;
    for (int r = 1; r <= 2; ++r) {
      SelectionResult greedy =
          RGreedy(cg->graph, budget, RGreedyOptions{.r = r});
      SelectionResult opt =
          BranchAndBoundOptimal(cg->graph, baseline_space(greedy));
      ASSERT_TRUE(opt.proven_optimal) << "frac " << frac;
      EXPECT_LE(opt.final_cost,
                greedy.final_cost + 1e-9 * (1.0 + greedy.final_cost))
          << "r " << r << " frac " << frac << " seed " << seed;
    }
    SelectionResult inner = InnerLevelGreedy(cg->graph, budget);
    SelectionResult opt =
        BranchAndBoundOptimal(cg->graph, baseline_space(inner));
    ASSERT_TRUE(opt.proven_optimal) << "frac " << frac;
    EXPECT_LE(opt.final_cost,
              inner.final_cost + 1e-9 * (1.0 + inner.final_cost))
        << "frac " << frac << " seed " << seed;
  }
}

TEST_P(DifferentialTest, GreedyTauDominatedByOptimalUnderCalibratedModel) {
  // Same domination oracle, but with the edge costs produced by a
  // calibrated model through the CostModel seam: greedy-vs-exhaustive
  // domination is a property of the resulting graph and must survive any
  // monotone cost model, not just the paper's |C|/|E|.
  uint64_t seed = GetParam();
  SyntheticCube cube = RandomSyntheticCube(2, 3, 50, 0.2, seed);
  CubeLattice lattice(cube.schema);
  CubeGraphOptions opts;
  opts.raw_scan_penalty = 2.0;
  opts.cost_model = std::make_shared<CalibratedCostModel>(
      CalibrationCoefficients{5.0, 120.0, 800.0});
  StatusOr<CubeGraph> cg = TryBuildCubeGraph(cube.schema, cube.sizes,
                                             AllSliceQueries(lattice), opts);
  ASSERT_TRUE(cg.ok()) << cg.status().ToString();
  double total = cube.sizes.TotalViewSpace() +
                 cube.sizes.TotalFatIndexSpace();
  auto baseline_space = [](const SelectionResult& run) {
    return run.space_used * (1.0 + 1e-12);
  };
  for (double frac : {0.15, 0.4, 0.8}) {
    double budget = frac * total;
    for (int r = 1; r <= 2; ++r) {
      SelectionResult greedy =
          RGreedy(cg->graph, budget, RGreedyOptions{.r = r});
      SelectionResult opt =
          BranchAndBoundOptimal(cg->graph, baseline_space(greedy));
      ASSERT_TRUE(opt.proven_optimal) << "frac " << frac;
      EXPECT_LE(opt.final_cost,
                greedy.final_cost + 1e-9 * (1.0 + greedy.final_cost))
          << "r " << r << " frac " << frac << " seed " << seed;
    }
    SelectionResult inner = InnerLevelGreedy(cg->graph, budget);
    SelectionResult opt =
        BranchAndBoundOptimal(cg->graph, baseline_space(inner));
    ASSERT_TRUE(opt.proven_optimal) << "frac " << frac;
    EXPECT_LE(opt.final_cost,
              inner.final_cost + 1e-9 * (1.0 + inner.final_cost))
        << "frac " << frac << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Range<uint64_t>(1, 9));

}  // namespace
}  // namespace olapidx
