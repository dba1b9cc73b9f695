// Column pricing oracle: inner-level greedy prices candidates per cost
// column on views with enough query positions per column
// (core/column_pricer.h) and re-runs the per-position loop wherever a
// price's error bound leaves a decision open. A copy of a graph made edge
// by edge gives every query a column of its own, so the copy takes only
// the per-position path; both runs must agree bit for bit on the picks,
// their benefits, the final cost and every work counter the column path
// must not move.
//
// Graphs: random cubes (paper and calibrated cost models), a hierarchical
// cube, and hand-built graphs fed through AddEdgeRuns with shared
// column classes, each stressing one corner of the error bound: mixed view
// costs within a column, maintenance, zero frequencies, a +inf default
// cost, duplicated index columns (exact ties) and costs 1 ulp apart.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/cube_graph.h"
#include "core/inner_greedy.h"
#include "core/sparse_cube_graph.h"
#include "cost/calibrated_cost_model.h"
#include "data/synthetic.h"
#include "hierarchy/hierarchical_graph.h"
#include "workload/workload.h"

namespace olapidx {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Rebuilds `g` through AddViewEdge/AddIndexEdge. Those edges carry no
// column class, so every position of the copy owns its column.
QueryViewGraph CopyEdgeByEdge(const QueryViewGraph& g) {
  QueryViewGraph copy;
  for (uint32_t v = 0; v < g.num_views(); ++v) {
    copy.AddView(g.view_name(v), g.view_space(v));
    for (int32_t k = 0; k < g.num_indexes(v); ++k) {
      copy.AddIndex(v, g.index_name(v, k), g.index_space(v, k));
    }
  }
  for (uint32_t q = 0; q < g.num_queries(); ++q) {
    copy.AddQuery(g.query_name(q), g.query_default_cost(q),
                  g.query_frequency(q));
  }
  for (uint32_t v = 0; v < g.num_views(); ++v) {
    const std::span<const uint32_t> queries = g.ViewQueries(v);
    for (size_t pos = 0; pos < queries.size(); ++pos) {
      copy.AddViewEdge(queries[pos], v, g.ViewCostAt(v, pos));
      for (int32_t k = 0; k < g.num_indexes(v); ++k) {
        copy.AddIndexEdge(queries[pos], v, k, g.IndexCostAt(v, k, pos));
      }
    }
  }
  copy.Finalize();
  for (uint32_t v = 0; v < g.num_views(); ++v) {
    copy.SetViewMaintenance(
        v, g.structure_maintenance(StructureRef{v, StructureRef::kNoIndex}));
    for (int32_t k = 0; k < g.num_indexes(v); ++k) {
      copy.SetIndexMaintenance(v, k,
                               g.structure_maintenance(StructureRef{v, k}));
    }
  }
  return copy;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

template <typename T>
bool SameBytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

void ExpectBitIdentical(const SelectionResult& by_column,
                        const SelectionResult& by_position,
                        const std::string& label) {
  ASSERT_TRUE(by_column.status.ok()) << label;
  ASSERT_TRUE(by_position.status.ok()) << label;
  EXPECT_TRUE(SameBytes(by_column.picks, by_position.picks)) << label;
  EXPECT_TRUE(SameBytes(by_column.pick_benefits, by_position.pick_benefits))
      << label;
  EXPECT_TRUE(SameBits(by_column.final_cost, by_position.final_cost))
      << label;
  EXPECT_EQ(by_column.candidates_evaluated, by_position.candidates_evaluated)
      << label;
  EXPECT_EQ(by_column.stats.bound_prunes, by_position.stats.bound_prunes)
      << label;
  EXPECT_EQ(by_column.stats.cache_hits, by_position.stats.cache_hits)
      << label;
  EXPECT_EQ(by_column.stats.cache_misses, by_position.stats.cache_misses)
      << label;
  EXPECT_EQ(by_column.beam_skipped, by_position.beam_skipped) << label;
  EXPECT_TRUE(
      SameBits(by_column.beam_stage_factor, by_position.beam_stage_factor))
      << label;
}

// Work summed over one test's runs, to check the column path ran.
struct Work {
  uint64_t column_cells = 0;
  uint64_t position_cells = 0;
  uint64_t rechecks = 0;
};

double TotalSpace(const QueryViewGraph& g) {
  double total = 0.0;
  for (uint32_t v = 0; v < g.num_views(); ++v) {
    total += g.view_space(v);
    for (int32_t k = 0; k < g.num_indexes(v); ++k) {
      total += g.index_space(v, k);
    }
  }
  return total;
}

// Inner-level greedy on `graph` and on its edge-by-edge copy, at three
// budgets (the last one large enough to select while any candidate gains),
// 1, 2 and 8 threads, and beams 0 and 4.
void ExpectColumnPathMatchesPositionPath(const QueryViewGraph& graph,
                                         const std::string& label,
                                         Work* work) {
  QueryViewGraph copy = CopyEdgeByEdge(graph);
  for (uint32_t v = 0; v < copy.num_views(); ++v) {
    if (copy.num_indexes(v) == 0) continue;
    ASSERT_EQ(copy.num_cols(v), copy.ViewQueries(v).size()) << label;
  }
  const double total = TotalSpace(graph);
  for (double fraction : {0.1, 0.4, 1.0}) {
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      for (size_t beam : {size_t{0}, size_t{4}}) {
        const InnerGreedyOptions options{.num_threads = threads,
                                         .beam_width = beam};
        const SelectionResult by_column =
            InnerLevelGreedy(graph, fraction * total, options);
        const SelectionResult by_position =
            InnerLevelGreedy(copy, fraction * total, options);
        ExpectBitIdentical(by_column, by_position,
                           label + " budget " + std::to_string(fraction) +
                               " threads " + std::to_string(threads) +
                               " beam " + std::to_string(beam));
        EXPECT_EQ(by_position.stats.exact_rechecks, 0u) << label;
        work->column_cells += by_column.stats.cost_cells;
        work->position_cells += by_position.stats.cost_cells;
        work->rechecks += by_column.stats.exact_rechecks;
      }
    }
  }
}

// A random cube's graph over every slice query, reweighted by `seed`.
CubeGraph RandomCubeGraph(int n, uint64_t seed,
                          std::shared_ptr<const CostModel> model) {
  SyntheticCube cube = RandomSyntheticCube(n, 5, 500, 0.05, seed);
  Workload all = AllSliceQueries(CubeLattice(cube.schema));
  Pcg32 rng(seed, 7);
  Workload workload;
  for (const WeightedQuery& wq : all.queries()) {
    workload.Add(wq.query, 0.5 + rng.NextDouble());
  }
  CubeGraphOptions options;
  options.raw_scan_penalty = 2.0;
  options.cost_model = std::move(model);
  StatusOr<CubeGraph> built =
      TryBuildCubeGraph(cube.schema, cube.sizes, workload, options);
  OLAPIDX_CHECK(built.ok());
  return *std::move(built);
}

TEST(ColumnPricingOracleTest, RandomCubesUnderThePaperModel) {
  Work work;
  for (int n = 3; n <= 5; ++n) {
    for (uint64_t seed : {1u, 2u}) {
      CubeGraph cg = RandomCubeGraph(n, seed, nullptr);
      ExpectColumnPathMatchesPositionPath(
          cg.graph,
          "paper n=" + std::to_string(n) + " seed=" + std::to_string(seed),
          &work);
    }
  }
  EXPECT_LT(work.column_cells, work.position_cells);
}

TEST(ColumnPricingOracleTest, RandomCubesUnderACalibratedModel) {
  auto model = std::make_shared<CalibratedCostModel>(
      CalibrationCoefficients{5.0, 120.0, 800.0});
  Work work;
  for (int n = 3; n <= 5; ++n) {
    CubeGraph cg = RandomCubeGraph(n, 3, model);
    ExpectColumnPathMatchesPositionPath(
        cg.graph, "calibrated n=" + std::to_string(n), &work);
  }
  EXPECT_LT(work.column_cells, work.position_cells);
}

TEST(ColumnPricingOracleTest, HierarchicalGraph) {
  HierarchicalSchema schema(
      {HierarchicalDimension{"a", {HierarchyLevel{"a0", 400},
                                   HierarchyLevel{"a1", 40}}},
       HierarchicalDimension{"b", {HierarchyLevel{"b0", 300},
                                   HierarchyLevel{"b1", 12}}},
       HierarchicalDimension{"c", {HierarchyLevel{"c0", 90}}}});
  std::vector<WeightedHQuery> workload;
  double frequency = 1.0;
  for (const HSliceQuery& q : EnumerateAllHQueries(schema)) {
    workload.push_back(WeightedHQuery{q, frequency});
    frequency = frequency > 3.0 ? 1.0 : frequency + 0.37;
  }
  HierarchicalGraphOptions options;
  options.raw_scan_penalty = 2.0;
  StatusOr<HierarchicalCubeGraph> hier =
      TryBuildHierarchicalCubeGraph(schema, 2e6, workload, options);
  ASSERT_TRUE(hier.ok()) << hier.status().ToString();
  Work work;
  ExpectColumnPathMatchesPositionPath(hier->graph, "hierarchical", &work);
  EXPECT_LT(work.column_cells, work.position_cells);
}

// ---- Hand-built graphs ----
//
// Each view has a few indexes and a few cost columns; every query reaches
// a random subset of the views through one column each, with one shared
// column class per (view, column). The knobs below each push one corner of
// the column path's error bound.
struct HandKnobs {
  bool mixed_view_costs = false;  // positions of a column differ in scan cost
  bool maintenance = false;       // positive view and index maintenance
  bool zero_frequencies = false;  // every third query has frequency 0
  bool infinite_default = false;  // some queries start at +inf
  bool duplicate_columns = false;  // index 1 repeats index 0's column
  bool ulp_costs = false;         // costs and defaults 1 ulp apart
};

QueryViewGraph HandBuiltGraph(uint64_t seed, const HandKnobs& knobs) {
  Pcg32 rng(seed, 11);
  auto uniform = [&](double lo, double hi) {
    return lo + (hi - lo) * rng.NextDouble();
  };
  auto pick = [&](uint32_t n) { return rng.Next() % n; };
  constexpr uint32_t kViews = 4;
  constexpr uint32_t kQueries = 96;
  QueryViewGraph g;
  struct View {
    double scan = 0.0;
    // columns[c][k]: index k's cost in column c.
    std::vector<std::vector<double>> columns;
  };
  std::vector<View> views(kViews);
  for (uint32_t v = 0; v < kViews; ++v) {
    View& view = views[v];
    view.scan = knobs.ulp_costs ? 1000.0 : uniform(500.0, 2000.0);
    g.AddView("v" + std::to_string(v), uniform(50.0, 400.0));
    const int32_t num_indexes = 3 + static_cast<int32_t>(pick(5));
    for (int32_t k = 0; k < num_indexes; ++k) {
      g.AddIndex(v, "i" + std::to_string(k), uniform(20.0, 200.0));
    }
    view.columns.resize(2 + pick(3));
    for (std::vector<double>& column : view.columns) {
      for (int32_t k = 0; k < num_indexes; ++k) {
        double cost = knobs.ulp_costs
                          ? std::nextafter(view.scan - 1.0 - pick(3), kInf)
                          : uniform(1.0, view.scan);
        for (uint32_t step = pick(3); step > 0; --step) {
          cost = std::nextafter(cost, kInf);
        }
        column.push_back(cost);
      }
      if (knobs.duplicate_columns) column[1] = column[0];
    }
    if (knobs.maintenance) {
      g.SetViewMaintenance(v, uniform(0.0, 3000.0));
      for (int32_t k = 0; k < num_indexes; ++k) {
        g.SetIndexMaintenance(v, k, uniform(0.0, 400.0));
      }
    }
  }
  for (uint32_t q = 0; q < kQueries; ++q) {
    double default_cost = knobs.ulp_costs ? 4000.0 : uniform(2500.0, 5000.0);
    for (uint32_t step = pick(4); step > 0; --step) {
      default_cost = std::nextafter(default_cost, kInf);
    }
    if (knobs.infinite_default && q % 7 == 3) default_cost = kInf;
    double frequency = uniform(0.5, 3.0);
    if (knobs.zero_frequencies && q % 3 == 0) frequency = 0.0;
    if (knobs.ulp_costs) frequency = 1.0;
    g.AddQuery("q" + std::to_string(q), default_cost, frequency);
  }
  // Runs in ascending query order, all in one call.
  std::vector<EdgeRun> runs;
  for (uint32_t q = 0; q < kQueries; ++q) {
    for (uint32_t v = 0; v < kViews; ++v) {
      if (pick(4) == 0) continue;
      const View& view = views[v];
      double scan = view.scan;
      if (knobs.mixed_view_costs) scan += 100.0 * pick(3);
      runs.push_back(EdgeRun{q, v, StructureRef::kNoIndex,
                             StructureRef::kNoIndex, scan});
      const uint32_t col = pick(static_cast<uint32_t>(view.columns.size()));
      for (int32_t k = 0; k < g.num_indexes(v); ++k) {
        runs.push_back(EdgeRun{q, v, k, k + 1,
                               view.columns[col][static_cast<size_t>(k)],
                               col + 1});
      }
    }
  }
  g.AddEdgeRuns(runs);
  g.Finalize();
  return g;
}

Work CheckHandBuilt(const HandKnobs& knobs, const std::string& label) {
  Work work;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    QueryViewGraph g = HandBuiltGraph(seed, knobs);
    ExpectColumnPathMatchesPositionPath(
        g, label + " seed=" + std::to_string(seed), &work);
  }
  EXPECT_LT(work.column_cells, work.position_cells) << label;
  return work;
}

TEST(ColumnPricingOracleTest, MixedViewCostsInOneColumn) {
  CheckHandBuilt(HandKnobs{.mixed_view_costs = true}, "mixed view costs");
}

TEST(ColumnPricingOracleTest, PositiveMaintenance) {
  CheckHandBuilt(HandKnobs{.maintenance = true}, "maintenance");
}

TEST(ColumnPricingOracleTest, ZeroFrequencies) {
  CheckHandBuilt(HandKnobs{.zero_frequencies = true}, "zero frequencies");
}

TEST(ColumnPricingOracleTest, InfiniteDefaultCost) {
  CheckHandBuilt(HandKnobs{.infinite_default = true}, "+inf default cost");
}

TEST(ColumnPricingOracleTest, DuplicatedIndexColumnsTieExactly) {
  // Exact ties at the top of a step can only be broken by exact values.
  Work work = CheckHandBuilt(HandKnobs{.duplicate_columns = true},
                             "duplicated columns");
  EXPECT_GT(work.rechecks, 0u);
}

TEST(ColumnPricingOracleTest, CostsOneUlpApart) {
  Work work = CheckHandBuilt(HandKnobs{.ulp_costs = true}, "1 ulp apart");
  EXPECT_GT(work.rechecks, 0u);
}

// ---- Storage: the finalized tables live in blocks of consecutive views ----
//
// A graph whose tables span several blocks reads, position by position,
// the same costs as its edge-by-edge copy, whose one-column-per-position
// tables span many more blocks with other cuts.
TEST(GraphStorageTest, MultiBlockTablesEqualEdgeByEdgeCopy) {
  // A sparse dim-12 graph: thousands of small views.
  SyntheticCube cube = UniformSyntheticCube(12, 30, 1e-6);
  SparseCubeGraphOptions options;
  options.raw_scan_penalty = 2.0;
  options.maintenance_per_row = 1e-3;
  StatusOr<SparseCubeGraph> built = TryBuildSparseCubeGraph(
      cube.schema, cube.sizes,
      SampledZipfSliceQueries(CubeLattice(cube.schema), 1.1, 200, 42),
      options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const QueryViewGraph& g = built->cube.graph;
  const QueryViewGraph copy = CopyEdgeByEdge(g);
  // Blocks are cut after the view whose tables, estimated at one column
  // per position and so never below their true size, reach 256 KiB.
  // Beyond twice that plus the largest view's tables, there are at least
  // three blocks.
  auto view_bytes = [](const QueryViewGraph& graph, uint32_t v) {
    return graph.ViewQueries(v).size() *
               (sizeof(double) + 2 * sizeof(uint32_t)) +
           static_cast<uint64_t>(graph.num_indexes(v)) * graph.num_cols(v) *
               sizeof(double);
  };
  uint64_t largest = 0;
  for (uint32_t v = 0; v < g.num_views(); ++v) {
    largest = std::max(largest, view_bytes(g, v));
  }
  ASSERT_GT(g.CostTableBytes(), 2 * ((uint64_t{1} << 18) + largest));

  ASSERT_EQ(copy.num_views(), g.num_views());
  for (uint32_t v = 0; v < g.num_views(); ++v) {
    SCOPED_TRACE("view " + std::to_string(v));
    const std::span<const uint32_t> queries = g.ViewQueries(v);
    const std::span<const uint32_t> copied = copy.ViewQueries(v);
    ASSERT_EQ(queries.size(), copied.size());
    ASSERT_EQ(g.num_indexes(v), copy.num_indexes(v));
    const std::span<const uint32_t> col_of_pos = g.col_of_pos(v);
    ASSERT_EQ(col_of_pos.size(), queries.size());
    for (size_t pos = 0; pos < queries.size(); ++pos) {
      ASSERT_EQ(queries[pos], copied[pos]) << "pos " << pos;
      ASSERT_TRUE(SameBits(g.ViewCostAt(v, pos), copy.ViewCostAt(v, pos)));
      ASSERT_LT(col_of_pos[pos], g.num_cols(v));
      for (int32_t k = 0; k < g.num_indexes(v); ++k) {
        const double cost = g.IndexCostAt(v, k, pos);
        ASSERT_TRUE(SameBits(cost, g.IndexCostRow(v, k)[col_of_pos[pos]]));
        ASSERT_TRUE(SameBits(cost, copy.IndexCostAt(v, k, pos)))
            << "index " << k << " pos " << pos;
      }
    }
    for (int32_t k = -1; k < g.num_indexes(v); ++k) {
      ASSERT_EQ(g.structure_maintenance(StructureRef{v, k}),
                copy.structure_maintenance(StructureRef{v, k}));
    }
  }
}

}  // namespace
}  // namespace olapidx
