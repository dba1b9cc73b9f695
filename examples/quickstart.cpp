// Quickstart: pick views and indexes for the paper's TPC-D cube in ~30
// lines. Builds the lattice, attaches the published subcube sizes, asks
// the advisor for an inner-level-greedy selection under a 25M-row budget,
// and prints the physical design plus the expected query costs.

#include <cstdio>

#include "common/format.h"
#include "core/advisor.h"
#include "data/tpcd.h"

int main() {
  using namespace olapidx;

  // 1. Describe the cube: dimensions and their cardinalities.
  CubeSchema schema = TpcdSchema();  // part, supplier, customer

  // 2. Provide subcube row counts (here: the paper's published numbers;
  //    see cost/analytical_model.h and cost/distinct_estimator.h for ways
  //    to estimate them from data).
  ViewSizes sizes = TpcdPaperSizes();

  // 3. Declare the query workload: all 3^n slice queries, equiprobable.
  CubeLattice lattice(schema);
  Workload workload = AllSliceQueries(lattice);

  // 4. Ask the advisor what to precompute.
  CubeGraphOptions graph_options;
  graph_options.raw_scan_penalty = 2.0;
  StatusOr<Advisor> advisor = Advisor::Create(
      schema, sizes, workload, graph_options);
  if (!advisor.ok()) {
    std::fprintf(stderr, "error: %s\n", advisor.status().ToString().c_str());
    return 1;
  }

  AdvisorConfig config;
  config.algorithm = Algorithm::kInnerLevel;
  config.space_budget = 25e6;
  Recommendation rec = advisor->Recommend(config);

  // 5. Use the recommendation.
  std::printf("Materialize (in pick order):\n");
  for (const RecommendedStructure& s : rec.structures) {
    std::printf("  %-14s %s rows%s\n", s.name.c_str(),
                FormatRowCount(s.space).c_str(),
                s.is_view() ? "" : "  (index)");
  }
  std::printf("\nSpace used: %s rows (budget %s)\n",
              FormatRowCount(rec.space_used).c_str(),
              FormatRowCount(config.space_budget).c_str());
  std::printf("Average query cost: %s -> %s rows (%sx faster)\n",
              FormatRowCount(rec.initial_average_cost).c_str(),
              FormatRowCount(rec.average_query_cost).c_str(),
              FormatFixed(rec.initial_average_cost / rec.average_query_cost,
                          1)
                  .c_str());
  return 0;
}
