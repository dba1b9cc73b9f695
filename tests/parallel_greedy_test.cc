// Parallel + memoized candidate evaluation: parallel-vs-serial and
// memoized-vs-rescan equivalence of the greedy cores, the dirty-set
// invalidation properties of SelectionState, and the subset-truncation
// counter.

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/cube_graph.h"
#include "core/inner_greedy.h"
#include "core/r_greedy.h"
#include "core/selection_state.h"
#include "data/example_graphs.h"
#include "data/synthetic.h"
#include "workload/workload.h"

namespace olapidx {
namespace {

struct CubeSetup {
  CubeGraph cg;
  double budget = 0.0;
};

CubeSetup MakeCube(int n, uint64_t seed = 0) {
  SyntheticCube cube = seed == 0
                           ? UniformSyntheticCube(n, 100, 0.05)
                           : RandomSyntheticCube(n, 5, 500, 0.05, seed);
  CubeLattice lattice(cube.schema);
  CubeGraphOptions opts;
  opts.raw_scan_penalty = 2.0;
  CubeSetup setup{TryBuildCubeGraph(cube.schema, cube.sizes,
                                    AllSliceQueries(lattice), opts)
                      .value(),
                  0.0};
  setup.budget = 0.25 * (cube.sizes.TotalViewSpace() +
                         cube.sizes.TotalFatIndexSpace());
  return setup;
}

// Bit-identical: same picks in the same order and bit-equal aggregates.
void ExpectIdenticalSelections(const SelectionResult& a,
                               const SelectionResult& b) {
  ASSERT_EQ(a.picks.size(), b.picks.size());
  for (size_t i = 0; i < a.picks.size(); ++i) {
    EXPECT_TRUE(a.picks[i] == b.picks[i]) << "pick " << i;
  }
  EXPECT_EQ(a.final_cost, b.final_cost);
  EXPECT_EQ(a.space_used, b.space_used);
  EXPECT_EQ(a.initial_cost, b.initial_cost);
}

TEST(ThreadPoolTest, ChunkBoundsCoverRangeExactly) {
  for (size_t n : {0u, 1u, 5u, 16u, 17u, 100u}) {
    for (size_t chunks : {1u, 2u, 3u, 7u, 16u}) {
      size_t covered = 0;
      size_t prev_end = 0;
      for (size_t c = 0; c < chunks; ++c) {
        auto [begin, end] = ThreadPool::ChunkBounds(n, chunks, c);
        EXPECT_EQ(begin, prev_end);
        EXPECT_LE(begin, end);
        covered += end - begin;
        prev_end = end;
      }
      EXPECT_EQ(covered, n);
      EXPECT_EQ(prev_end, n);
    }
  }
}

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<int> hits(1000, 0);
  pool.ParallelFor(hits.size(), [&](size_t begin, size_t end, size_t) {
    for (size_t i = begin; i < end; ++i) ++hits[i];
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], 1) << "index " << i;
  }
  // Reusable for a second loop.
  size_t total = 0;
  std::vector<size_t> per_chunk(pool.num_threads(), 0);
  pool.ParallelFor(337, [&](size_t begin, size_t end, size_t chunk) {
    per_chunk[chunk] += end - begin;
  });
  for (size_t c : per_chunk) total += c;
  EXPECT_EQ(total, 337u);
}

TEST(ParallelEquivalenceTest, RGreedyParallelMatchesSerialBitExactly) {
  for (int n = 3; n <= 5; ++n) {
    CubeSetup setup = MakeCube(n);
    for (int r = 1; r <= 3; ++r) {
      if (n == 5 && r == 3) continue;  // covered (capped) below
      SelectionResult serial =
          RGreedy(setup.cg.graph, setup.budget,
                  RGreedyOptions{.r = r, .num_threads = 1,
                                 .memoize = false});
      SelectionResult parallel =
          RGreedy(setup.cg.graph, setup.budget,
                  RGreedyOptions{.r = r, .num_threads = 4});
      ExpectIdenticalSelections(serial, parallel);
      // Memoization may only reduce work, never change picks.
      EXPECT_LE(parallel.candidates_evaluated,
                serial.candidates_evaluated);
    }
  }
}

TEST(ParallelEquivalenceTest, RGreedyCappedSubsetsStillEquivalent) {
  CubeSetup setup = MakeCube(5);
  RGreedyOptions serial_opts{.r = 3, .max_subsets_per_view = 5'000,
                             .num_threads = 1, .memoize = false};
  RGreedyOptions parallel_opts{.r = 3, .max_subsets_per_view = 5'000,
                               .num_threads = 4};
  SelectionResult serial = RGreedy(setup.cg.graph, setup.budget,
                                   serial_opts);
  SelectionResult parallel = RGreedy(setup.cg.graph, setup.budget,
                                     parallel_opts);
  ExpectIdenticalSelections(serial, parallel);
}

TEST(ParallelEquivalenceTest, CacheHitRateNonzeroAfterStageOne) {
  CubeSetup setup = MakeCube(5);
  SelectionResult res = RGreedy(setup.cg.graph, setup.budget,
                                RGreedyOptions{.r = 2});
  ASSERT_GT(res.stats.stages, 1u);
  EXPECT_GT(res.stats.cache_hits, 0u);
  EXPECT_GT(res.stats.CacheHitRate(), 0.0);
  // One timing entry per pick-producing stage, plus possibly one final
  // barren scan when the loop ends by exhausting candidates rather than
  // the budget.
  EXPECT_GE(res.stats.stage_wall_micros.size(),
            static_cast<size_t>(res.stats.stages));
  EXPECT_LE(res.stats.stage_wall_micros.size(),
            static_cast<size_t>(res.stats.stages) + 1);
}

TEST(ParallelEquivalenceTest, InnerGreedyParallelMatchesSerialBitExactly) {
  for (int n = 3; n <= 5; ++n) {
    CubeSetup setup = MakeCube(n);
    SelectionResult serial = InnerLevelGreedy(
        setup.cg.graph, setup.budget,
        InnerGreedyOptions{.num_threads = 1, .memoize = false});
    SelectionResult parallel = InnerLevelGreedy(
        setup.cg.graph, setup.budget,
        InnerGreedyOptions{.num_threads = 4});
    ExpectIdenticalSelections(serial, parallel);
    EXPECT_LE(parallel.candidates_evaluated, serial.candidates_evaluated);
    if (parallel.stats.stages > 1) {
      EXPECT_GT(parallel.stats.cache_hits, 0u);
    }
  }
}

TEST(ParallelEquivalenceTest, RandomCubesAgreeAcrossConfigurations) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    CubeSetup setup = MakeCube(3, seed);
    for (int r = 1; r <= 3; ++r) {
      SelectionResult reference =
          RGreedy(setup.cg.graph, setup.budget,
                  RGreedyOptions{.r = r, .num_threads = 1,
                                 .memoize = false});
      for (size_t threads : {size_t{1}, size_t{3}}) {
        SelectionResult memoized = RGreedy(
            setup.cg.graph, setup.budget,
            RGreedyOptions{.r = r, .num_threads = threads});
        ExpectIdenticalSelections(reference, memoized);
      }
    }
  }
}

// ---- Dirty-set invalidation properties ----

TEST(CacheInvalidationTest, ApplyBumpsExactlyTheQuerySharingViews) {
  // a and b share q1; c is disjoint.
  QueryViewGraph g;
  uint32_t a = g.AddView("a", 1.0);
  uint32_t b = g.AddView("b", 1.0);
  uint32_t c = g.AddView("c", 1.0);
  uint32_t q1 = g.AddQuery("q1", 100.0);
  uint32_t q2 = g.AddQuery("q2", 100.0);
  g.AddViewEdge(q1, a, 10.0);
  g.AddViewEdge(q1, b, 20.0);
  g.AddViewEdge(q2, c, 10.0);
  g.Finalize();

  EXPECT_EQ(g.QueryViews(q1), (std::vector<uint32_t>{a, b}));
  EXPECT_EQ(g.QueryViews(q2), (std::vector<uint32_t>{c}));

  SelectionState state(&g);
  uint64_t va = state.ViewVersion(a), vb = state.ViewVersion(b),
           vc = state.ViewVersion(c);
  state.ApplyStructure(StructureRef{a, StructureRef::kNoIndex});
  EXPECT_GT(state.ViewVersion(a), va);  // its own pick
  EXPECT_GT(state.ViewVersion(b), vb);  // shares q1 with a
  EXPECT_EQ(state.ViewVersion(c), vc);  // disjoint: untouched
}

// Cross-checks memoized benefits against fresh CandidateBenefit
// recomputation after every stage of a single-structure greedy: clean
// views must be bit-exact, stale caches must be upper bounds
// (submodularity).
TEST(CacheInvalidationTest, CleanViewsExactStaleViewsUpperBounds) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    CubeSetup setup = MakeCube(3, seed);
    const QueryViewGraph& g = setup.cg.graph;
    SelectionState state(&g);

    struct Snapshot {
      Candidate cand;
      double benefit;
      uint64_t version;
    };

    for (int stage = 0; stage < 12; ++stage) {
      // Snapshot every currently-valid single-structure candidate.
      std::vector<Snapshot> snaps;
      for (uint32_t v = 0; v < g.num_views(); ++v) {
        if (!state.ViewSelected(v)) {
          Candidate cand{v, /*add_view=*/true, {}};
          snaps.push_back(Snapshot{cand, state.CandidateBenefit(cand),
                                   state.ViewVersion(v)});
        } else {
          for (int32_t k = 0; k < g.num_indexes(v); ++k) {
            if (state.IndexSelected(v, k)) continue;
            Candidate cand{v, /*add_view=*/false, {k}};
            snaps.push_back(Snapshot{cand, state.CandidateBenefit(cand),
                                     state.ViewVersion(v)});
          }
        }
      }

      // Greedy pick: best positive benefit-per-space snapshot.
      const Snapshot* best = nullptr;
      double best_ratio = 0.0;
      for (const Snapshot& s : snaps) {
        if (s.benefit <= 0.0) continue;
        double ratio = s.benefit / state.CandidateSpace(s.cand);
        if (best == nullptr || ratio > best_ratio) {
          best = &s;
          best_ratio = ratio;
        }
      }
      if (best == nullptr) break;
      Candidate picked = best->cand;
      state.Apply(picked);

      for (const Snapshot& s : snaps) {
        // Skip candidates invalidated by the pick itself.
        if (s.cand.view == picked.view) continue;
        double fresh = state.CandidateBenefit(s.cand);
        if (state.ViewVersion(s.cand.view) == s.version) {
          // Clean: the memoized value must be bit-exact.
          EXPECT_EQ(fresh, s.benefit)
              << "seed " << seed << " stage " << stage << " view "
              << s.cand.view;
        } else {
          // Stale: monotonicity makes the cached value an upper bound.
          EXPECT_LE(fresh, s.benefit + 1e-9)
              << "seed " << seed << " stage " << stage << " view "
              << s.cand.view;
        }
      }
    }
  }
}

// ---- Subset truncation accounting ----

TEST(TruncationTest, CapIsCountedUncappedIsNot) {
  QueryViewGraph g = Figure2Instance();
  SelectionResult exact =
      RGreedy(g, kFigure2Budget, RGreedyOptions{.r = 3});
  EXPECT_EQ(exact.candidates_truncated, 0u);
  SelectionResult capped = RGreedy(
      g, kFigure2Budget,
      RGreedyOptions{.r = 3, .max_subsets_per_view = 1});
  EXPECT_GT(capped.candidates_truncated, 0u);
}

}  // namespace
}  // namespace olapidx
