// Beam selection (RGreedyOptions / InnerGreedyOptions::beam_width):
// capping per-stage re-evaluations at the B best stale bounds.
//
// Contracts under test:
//   - beam_width = 0 and an unbounded beam are bit-identical to the exact
//     greedy (same picks, same doubles), for every thread count;
//   - a finite beam always completes and reports its a-posteriori
//     guarantee: beam_stage_factor ∈ (0, 1], 1.0 exactly when no stage
//     ever skipped a candidate whose bound beat the pick;
//   - the beam defers only certified-bounded views, so it never stops a
//     run earlier than the exact greedy would (deferred fallback);
//   - the O(n) beam cut (core/beam_cut.h) keeps and defers exactly what a
//     full sort by (bound descending, id ascending) would.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/beam_cut.h"
#include "core/cube_graph.h"
#include "core/inner_greedy.h"
#include "core/r_greedy.h"
#include "core/sparse_cube_graph.h"
#include "data/synthetic.h"
#include "workload/workload.h"

namespace olapidx {
namespace {

CubeGraph BuildGraph(int n, uint64_t seed) {
  SyntheticCube cube = UniformSyntheticCube(n, 80, 0.05);
  CubeLattice lattice(cube.schema);
  Workload workload = ZipfSliceQueries(lattice, 1.1, seed);
  CubeGraphOptions options;
  options.raw_scan_penalty = 2.0;
  StatusOr<CubeGraph> built =
      TryBuildCubeGraph(cube.schema, cube.sizes, workload, options);
  OLAPIDX_CHECK(built.ok());
  return *std::move(built);
}

void ExpectBitIdentical(const SelectionResult& a, const SelectionResult& b,
                        const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_TRUE(a.status.ok()) << a.status.ToString();
  ASSERT_TRUE(b.status.ok()) << b.status.ToString();
  ASSERT_EQ(a.picks.size(), b.picks.size());
  for (size_t i = 0; i < a.picks.size(); ++i) {
    EXPECT_EQ(a.picks[i], b.picks[i]) << "pick " << i;
    EXPECT_EQ(a.pick_benefits[i], b.pick_benefits[i]) << "pick " << i;
  }
  EXPECT_EQ(a.final_cost, b.final_cost);
  EXPECT_EQ(a.space_used, b.space_used);
  EXPECT_EQ(a.stats.stages, b.stats.stages);
  // The work counters are integer sums over views, so neither the thread
  // count nor which chunk claimed which view may move them.
  EXPECT_EQ(a.candidates_evaluated, b.candidates_evaluated);
  EXPECT_EQ(a.stats.cost_cells, b.stats.cost_cells);
  EXPECT_EQ(a.stats.exact_rechecks, b.stats.exact_rechecks);
  EXPECT_EQ(a.stats.bound_prunes, b.stats.bound_prunes);
  EXPECT_EQ(a.stats.cache_hits, b.stats.cache_hits);
  EXPECT_EQ(a.stats.cache_misses, b.stats.cache_misses);
  EXPECT_EQ(a.beam_skipped, b.beam_skipped);
  EXPECT_EQ(a.beam_stage_factor, b.beam_stage_factor);
}

TEST(BeamSelectionTest, UnboundedBeamIsExactRGreedy) {
  for (int n = 3; n <= 6; ++n) {
    CubeGraph cg = BuildGraph(n, static_cast<uint64_t>(n));
    const double budget = 3.0 * cg.graph.view_space(cg.graph.num_views() - 1);
    for (int r : {1, 2}) {
      RGreedyOptions exact;
      exact.r = r;
      SelectionResult base = RGreedy(cg.graph, budget, exact);
      ASSERT_GT(base.picks.size(), 0u);
      for (size_t beam : {size_t{0}, SIZE_MAX, size_t{1} << 20}) {
        RGreedyOptions beamed = exact;
        beamed.beam_width = beam;
        SelectionResult got = RGreedy(cg.graph, budget, beamed);
        EXPECT_EQ(got.beam_skipped, 0u);
        EXPECT_EQ(got.beam_stage_factor, 1.0);
        ExpectBitIdentical(got, base,
                           "n=" + std::to_string(n) +
                               " r=" + std::to_string(r) +
                               " beam=" + std::to_string(beam));
      }
    }
  }
}

TEST(BeamSelectionTest, UnboundedBeamIsExactInnerGreedy) {
  for (int n = 3; n <= 6; ++n) {
    CubeGraph cg = BuildGraph(n, static_cast<uint64_t>(10 + n));
    const double budget = 3.0 * cg.graph.view_space(cg.graph.num_views() - 1);
    SelectionResult base = InnerLevelGreedy(cg.graph, budget, {});
    ASSERT_GT(base.picks.size(), 0u);
    for (size_t beam : {size_t{0}, SIZE_MAX}) {
      InnerGreedyOptions options;
      options.beam_width = beam;
      SelectionResult got = InnerLevelGreedy(cg.graph, budget, options);
      EXPECT_EQ(got.beam_skipped, 0u);
      EXPECT_EQ(got.beam_stage_factor, 1.0);
      ExpectBitIdentical(got, base,
                         "n=" + std::to_string(n) +
                             " beam=" + std::to_string(beam));
    }
  }
}

TEST(BeamSelectionTest, FiniteBeamCompletesAndReportsGuarantee) {
  CubeGraph cg = BuildGraph(5, 21);
  const double budget = 4.0 * cg.graph.view_space(cg.graph.num_views() - 1);
  for (size_t beam : {size_t{1}, size_t{4}, size_t{16}}) {
    SCOPED_TRACE("beam=" + std::to_string(beam));
    InnerGreedyOptions options;
    options.beam_width = beam;
    SelectionResult got = InnerLevelGreedy(cg.graph, budget, options);
    ASSERT_TRUE(got.status.ok()) << got.status.ToString();
    EXPECT_TRUE(got.completed);
    EXPECT_GT(got.picks.size(), 0u);
    EXPECT_GT(got.Benefit(), 0.0);
    EXPECT_GT(got.beam_stage_factor, 0.0);
    EXPECT_LE(got.beam_stage_factor, 1.0);
    // A pick whose ratio matched or beat every skipped bound keeps the
    // factor at exactly 1; anything else must have recorded skips.
    if (got.beam_stage_factor < 1.0) {
      EXPECT_GT(got.beam_skipped, 0u);
    }

    RGreedyOptions ropts;
    ropts.r = 2;
    ropts.beam_width = beam;
    SelectionResult rgot = RGreedy(cg.graph, budget, ropts);
    ASSERT_TRUE(rgot.status.ok()) << rgot.status.ToString();
    EXPECT_TRUE(rgot.completed);
    EXPECT_GT(rgot.beam_stage_factor, 0.0);
    EXPECT_LE(rgot.beam_stage_factor, 1.0);
  }
}

TEST(BeamSelectionTest, FiniteBeamSkipsWork) {
  // A tight beam on a graph with many views must actually defer
  // re-evaluations (the whole point), and still never pick a worse
  // candidate than the bound it certified: the run's final cost can only
  // be above the exact run's by stages whose factor dropped below 1.
  CubeGraph cg = BuildGraph(6, 33);
  const double budget = 4.0 * cg.graph.view_space(cg.graph.num_views() - 1);
  InnerGreedyOptions tight;
  tight.beam_width = 1;
  SelectionResult beamed = InnerLevelGreedy(cg.graph, budget, tight);
  SelectionResult exact = InnerLevelGreedy(cg.graph, budget, {});
  ASSERT_TRUE(beamed.status.ok());
  ASSERT_TRUE(exact.status.ok());
  EXPECT_GT(beamed.beam_skipped, 0u);
  EXPECT_LT(beamed.candidates_evaluated, exact.candidates_evaluated);
  if (beamed.beam_stage_factor == 1.0) {
    EXPECT_EQ(beamed.final_cost, exact.final_cost);
  }
}

TEST(BeamSelectionTest, BeamIsThreadDeterministic) {
  CubeGraph cg = BuildGraph(5, 8);
  const double budget = 4.0 * cg.graph.view_space(cg.graph.num_views() - 1);
  InnerGreedyOptions base;
  base.beam_width = 2;
  base.num_threads = 1;
  SelectionResult serial = InnerLevelGreedy(cg.graph, budget, base);
  ASSERT_TRUE(serial.status.ok());
  for (size_t threads : {size_t{2}, size_t{8}}) {
    InnerGreedyOptions options = base;
    options.num_threads = threads;
    SelectionResult got = InnerLevelGreedy(cg.graph, budget, options);
    EXPECT_EQ(got.beam_skipped, serial.beam_skipped);
    EXPECT_EQ(got.beam_stage_factor, serial.beam_stage_factor);
    ExpectBitIdentical(got, serial,
                       "threads=" + std::to_string(threads));
  }
  RGreedyOptions ropts;
  ropts.r = 1;
  ropts.beam_width = 2;
  ropts.num_threads = 1;
  SelectionResult rserial = RGreedy(cg.graph, budget, ropts);
  ASSERT_TRUE(rserial.status.ok());
  for (size_t threads : {size_t{2}, size_t{8}}) {
    RGreedyOptions options = ropts;
    options.num_threads = threads;
    SelectionResult got = RGreedy(cg.graph, budget, options);
    ExpectBitIdentical(got, rserial,
                       "r-greedy threads=" + std::to_string(threads));
  }

  // A sparse dim-12 graph: thousands of views of very different weights,
  // so the heaviest-first schedule and the beam cut both have work to do.
  SyntheticCube cube = UniformSyntheticCube(12, 30, 1e-6);
  const Workload workload =
      SampledZipfSliceQueries(CubeLattice(cube.schema), 1.1, 800, 42);
  SparseCubeGraphOptions sparse_options;
  sparse_options.raw_scan_penalty = 2.0;
  StatusOr<SparseCubeGraph> sparse = TryBuildSparseCubeGraph(
      cube.schema, cube.sizes, workload, sparse_options);
  ASSERT_TRUE(sparse.ok()) << sparse.status().ToString();
  const QueryViewGraph& g = sparse->cube.graph;
  ASSERT_GT(g.num_views(), 2000u);
  const double sparse_budget = 3.0 * g.view_space(g.num_views() - 1);
  InnerGreedyOptions inner;
  inner.beam_width = 16;
  inner.num_threads = 1;
  SelectionResult inner_serial = InnerLevelGreedy(g, sparse_budget, inner);
  ASSERT_TRUE(inner_serial.status.ok());
  EXPECT_GT(inner_serial.beam_skipped, 0u);
  RGreedyOptions rg;
  rg.r = 2;
  rg.beam_width = 16;
  rg.num_threads = 1;
  SelectionResult r_serial = RGreedy(g, sparse_budget, rg);
  ASSERT_TRUE(r_serial.status.ok());
  EXPECT_GT(r_serial.beam_skipped, 0u);
  for (size_t threads : {size_t{2}, size_t{8}}) {
    inner.num_threads = threads;
    ExpectBitIdentical(InnerLevelGreedy(g, sparse_budget, inner), inner_serial,
                       "sparse threads=" + std::to_string(threads));
    rg.num_threads = threads;
    ExpectBitIdentical(RGreedy(g, sparse_budget, rg), r_serial,
                       "sparse r-greedy threads=" + std::to_string(threads));
  }
}

// The beam cut against the full sort it replaces: on random bounds with
// many ties, on all-equal bounds, and at sizes around the beam width, the
// kept set, the deferred set and the boundary (largest deferred) bound
// agree.
TEST(BeamCutTest, MatchesFullSort) {
  Pcg32 rng(2024);
  const size_t beam = 16;
  for (int trial = 0; trial < 60; ++trial) {
    const bool all_equal = trial % 6 == 0;
    const size_t sizes[] = {0, beam - 1, beam, beam + 1, 40, 500};
    const size_t n = sizes[static_cast<size_t>(trial) % 6];
    std::vector<double> bound(1000);
    for (double& b : bound) {
      // Few distinct values, so ties between views are common.
      b = all_equal ? 0.5 : static_cast<double>(rng.NextBounded(8)) / 4.0;
    }
    // n distinct views in random order: a shuffle's prefix.
    std::vector<uint32_t> shuffled(bound.size());
    for (uint32_t v = 0; v < shuffled.size(); ++v) shuffled[v] = v;
    for (size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1],
                shuffled[rng.NextBounded(static_cast<uint32_t>(i))]);
    }
    shuffled.resize(n);
    SCOPED_TRACE("trial " + std::to_string(trial) + " n=" +
                 std::to_string(n));

    std::vector<uint32_t> sorted = shuffled;
    std::sort(sorted.begin(), sorted.end(), [&](uint32_t a, uint32_t b) {
      if (bound[a] != bound[b]) return bound[a] > bound[b];
      return a < b;
    });
    std::vector<uint32_t> cut = shuffled;
    CutBeam(cut, beam, [&](uint32_t v) { return bound[v]; });
    const size_t kept = std::min(beam, n);
    // The views of [begin, end) of `order`, as a sorted set.
    auto part = [](const std::vector<uint32_t>& order, size_t begin,
                   size_t end) {
      std::vector<uint32_t> views(
          order.begin() + static_cast<std::ptrdiff_t>(begin),
          order.begin() + static_cast<std::ptrdiff_t>(end));
      std::sort(views.begin(), views.end());
      return views;
    };
    EXPECT_EQ(part(cut, 0, kept), part(sorted, 0, kept));
    EXPECT_EQ(part(cut, kept, n), part(sorted, kept, n));
    if (n > beam) {
      EXPECT_EQ(cut[beam], sorted[beam]);
      EXPECT_EQ(bound[cut[beam]], bound[sorted[beam]]);
    } else {
      EXPECT_EQ(cut, shuffled);  // nothing to cut: left as given
    }
  }
}

TEST(BeamSelectionTest, BeamRequiresMemoization) {
  // With memoization off there are no stale bounds to rank, so the beam
  // must be inert: identical to the exact run, nothing skipped.
  CubeGraph cg = BuildGraph(4, 17);
  const double budget = 3.0 * cg.graph.view_space(cg.graph.num_views() - 1);
  InnerGreedyOptions off;
  off.memoize = false;
  SelectionResult exact = InnerLevelGreedy(cg.graph, budget, off);
  InnerGreedyOptions beamed = off;
  beamed.beam_width = 1;
  SelectionResult got = InnerLevelGreedy(cg.graph, budget, beamed);
  EXPECT_EQ(got.beam_skipped, 0u);
  EXPECT_EQ(got.beam_stage_factor, 1.0);
  ExpectBitIdentical(got, exact, "memoize off");
}

}  // namespace
}  // namespace olapidx
