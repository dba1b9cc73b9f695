// Update-aware selection on hierarchical lattices: maintenance pressure
// must push the selection toward coarser (smaller) structures, and the
// zero-rate graph must match the rate-free build exactly.

#include <gtest/gtest.h>

#include "core/inner_greedy.h"
#include "hierarchy/hierarchical_graph.h"

namespace olapidx {
namespace {

HierarchicalSchema Schema() {
  return HierarchicalSchema({
      HierarchicalDimension{"store",
                            {{"store", 1000}, {"city", 80}, {"region", 8}}},
      HierarchicalDimension{"day", {{"day", 365}, {"month", 12}}},
  });
}

double TotalSpace(const QueryViewGraph& g) {
  double total = 0.0;
  for (uint32_t v = 0; v < g.num_views(); ++v) {
    total += g.view_space(v) *
             (1.0 + static_cast<double>(g.num_indexes(v)));
  }
  return total;
}

TEST(HierarchyMaintenanceTest, ZeroRateEqualsDefault) {
  HierarchicalSchema schema = Schema();
  HierarchicalGraphOptions plain;
  plain.raw_scan_penalty = 2.0;
  HierarchicalGraphOptions zero = plain;
  zero.maintenance_per_row = 0.0;
  StatusOr<HierarchicalCubeGraph> a = TryBuildHierarchicalCubeGraph(
      schema, 50'000, UniformHWorkload(schema), plain);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  StatusOr<HierarchicalCubeGraph> b = TryBuildHierarchicalCubeGraph(
      schema, 50'000, UniformHWorkload(schema), zero);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  double budget = 0.05 * TotalSpace(a->graph);
  EXPECT_NEAR(InnerLevelGreedy(a->graph, budget).Benefit(),
              InnerLevelGreedy(b->graph, budget).Benefit(), 1e-9);
}

TEST(HierarchyMaintenanceTest, PressureShrinksAverageStructure) {
  HierarchicalSchema schema = Schema();
  double avg_prev = 0.0;
  bool first = true;
  for (double rate : {0.0, 200.0}) {
    HierarchicalGraphOptions options;
    options.raw_scan_penalty = 2.0;
    options.maintenance_per_row = rate;
    StatusOr<HierarchicalCubeGraph> cube = TryBuildHierarchicalCubeGraph(
        schema, 50'000, UniformHWorkload(schema), options);
    ASSERT_TRUE(cube.ok()) << cube.status().ToString();
    double budget = 0.05 * TotalSpace(cube->graph);
    SelectionResult r = InnerLevelGreedy(cube->graph, budget);
    ASSERT_FALSE(r.picks.empty()) << "rate " << rate;
    double avg =
        r.space_used / static_cast<double>(r.picks.size());
    if (!first) {
      EXPECT_LT(avg, avg_prev);
    }
    avg_prev = avg;
    first = false;
    // Benefits remain net-positive.
    EXPECT_GT(r.Benefit(), 0.0);
  }
}

}  // namespace
}  // namespace olapidx
