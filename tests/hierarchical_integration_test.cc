// End-to-end pipeline on the hierarchical lattice: build the selection
// graph, choose structures with inner-level greedy, physically materialize
// them (leveled views + B-trees), execute the whole hierarchical workload,
// and verify both correctness (vs the naive executor) and the speedup the
// selection promised.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/inner_greedy.h"
#include "hierarchy/hierarchical_executor.h"
#include "hierarchy/hierarchical_graph.h"

namespace olapidx {
namespace {

HierarchicalSchema RetailSchema() {
  return HierarchicalSchema({
      HierarchicalDimension{"store",
                            {{"store", 60}, {"city", 12}, {"region", 4}}},
      HierarchicalDimension{"day", {{"day", 48}, {"month", 12}}},
      HierarchicalDimension{"promo", {{"promo", 6}}},
  });
}

TEST(HierarchicalPipelineTest, SelectMaterializeExecute) {
  HierarchicalSchema schema = RetailSchema();
  HierarchyMaps maps = HierarchyMaps::Balanced(schema);
  FactTable fact = GenerateHierarchicalFacts(schema, 2'000, /*seed=*/51);

  // Selection over analytical sizes for the generated row count.
  HierarchicalGraphOptions options;
  options.raw_scan_penalty = 2.0;
  StatusOr<HierarchicalCubeGraph> cube = TryBuildHierarchicalCubeGraph(
      schema, static_cast<double>(fact.num_rows()),
      UniformHWorkload(schema), options);
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();
  double total = 0.0;
  for (uint32_t v = 0; v < cube->graph.num_views(); ++v) {
    total += cube->graph.view_space(v) *
             (1.0 + static_cast<double>(cube->graph.num_indexes(v)));
  }
  SelectionResult selection = InnerLevelGreedy(cube->graph, 0.2 * total);
  ASSERT_FALSE(selection.picks.empty());

  // Materialize the picks.
  HierarchicalCatalog catalog(&fact, &maps);
  for (const StructureRef& s : selection.picks) {
    const LevelVector& levels = cube->view_levels[s.view];
    catalog.MaterializeView(levels);
    if (!s.is_view()) {
      catalog.BuildIndex(levels, cube->IndexOrderOf(s.view, s.index));
    }
  }

  // Execute every hierarchical slice query; check against naive and
  // accumulate the measured work.
  HierarchicalExecutor executor(&catalog);
  Pcg32 rng(9);
  double with_rows = 0.0;
  size_t executed = 0;
  size_t raw_fallbacks = 0;
  for (const HSliceQuery& q : EnumerateAllHQueries(schema)) {
    std::vector<uint32_t> values;
    for (int d = 0; d < schema.num_dimensions(); ++d) {
      if (q.role(d).kind == HDimRole::kSelect) {
        values.push_back(rng.NextBounded(static_cast<uint32_t>(
            schema.cardinality(d, q.role(d).level))));
      }
    }
    HExecutionStats stats;
    HGroupedResult fast = executor.Execute(q, values, &stats);
    HGroupedResult naive = executor.ExecuteNaive(q, values);
    ASSERT_EQ(fast.num_rows(), naive.num_rows()) << q.ToString(schema);
    for (size_t r = 0; r < fast.num_rows(); ++r) {
      ASSERT_EQ(fast.keys[r], naive.keys[r]);
      ASSERT_NEAR(fast.aggregates[r].sum, naive.aggregates[r].sum, 1e-6);
      ASSERT_EQ(fast.aggregates[r].count, naive.aggregates[r].count);
    }
    with_rows += static_cast<double>(stats.rows_processed);
    if (stats.used_raw) ++raw_fallbacks;
    ++executed;
  }

  // The physical design must pay off on average (raw = 2000 rows/query),
  // and the base view was selected, so nothing needs the raw table.
  double avg = with_rows / static_cast<double>(executed);
  EXPECT_LT(avg, 0.5 * static_cast<double>(fact.num_rows()));
  EXPECT_EQ(raw_fallbacks, 0u);
  // Engine space accounting matches the selection's estimate loosely
  // (analytical sizes vs measured materialization).
  EXPECT_NEAR(catalog.TotalSpaceRows(), selection.space_used,
              0.25 * selection.space_used);
}

}  // namespace
}  // namespace olapidx
