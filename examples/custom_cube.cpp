// Bring-your-own cube: define a 5-dimensional retail schema, estimate view
// sizes analytically from dimension cardinalities (no data needed), skew
// the workload toward the queries the dashboards actually run, and compare
// the selection algorithms — including what happens when the workload
// changes after the physical design was frozen.

#include <cstdio>

#include "common/format.h"
#include "common/table_printer.h"
#include "core/advisor.h"
#include "core/selection_state.h"
#include "cost/analytical_model.h"

int main() {
  using namespace olapidx;

  // A retail cube: 5 dimensions, one year of data, ~20M fact rows.
  CubeSchema schema({Dimension{"store", 450},
                     Dimension{"product", 30'000},
                     Dimension{"day", 365},
                     Dimension{"promo", 40},
                     Dimension{"channel", 5}});
  double raw_rows = 20e6;
  ViewSizes sizes = AnalyticalViewSizes(schema, raw_rows);
  std::printf("Retail cube: 2^5 = %u subcubes, %llu fat structures, "
              "sparsity %.2e\n",
              1u << 5,
              static_cast<unsigned long long>(
                  CubeLattice::TotalFatStructures(5)),
              CubeSparsity(schema, raw_rows));

  // Dashboards slice by store and day far more often than anything else.
  CubeLattice lattice(schema);
  Workload workload = HotDimensionSliceQueries(
      lattice, AttributeSet::Of({0, 2}), /*hot_boost=*/6.0);

  CubeGraphOptions gopts;
  gopts.raw_scan_penalty = 2.0;
  StatusOr<Advisor> advisor = Advisor::Create(schema, sizes, workload, gopts);
  if (!advisor.ok()) {
    std::fprintf(stderr, "error: %s\n", advisor.status().ToString().c_str());
    return 1;
  }

  double budget = 0.01 * (sizes.TotalViewSpace() +
                          sizes.TotalFatIndexSpace());
  std::printf("Budget: %s rows (1%% of materialize-everything)\n\n",
              FormatRowCount(budget).c_str());

  TablePrinter t({"algorithm", "avg query cost", "space used",
                  "structures", "candidates evaluated"});
  Recommendation kept;
  for (auto [label, algo] :
       {std::pair{"inner-level", Algorithm::kInnerLevel},
        {"2-greedy", Algorithm::kRGreedy},
        {"two-step 50/50", Algorithm::kTwoStep},
        {"views-only", Algorithm::kHruViewsOnly}}) {
    AdvisorConfig config;
    config.algorithm = algo;
    config.space_budget = budget;
    config.r_greedy.r = 2;
    config.two_step.index_fraction = 0.5;
    config.two_step.strict_fit = true;
    Recommendation rec = advisor->Recommend(config);
    if (algo == Algorithm::kInnerLevel) kept = rec;
    t.AddRow({label, FormatRowCount(rec.average_query_cost),
              FormatRowCount(rec.space_used),
              std::to_string(rec.structures.size()),
              std::to_string(rec.raw.candidates_evaluated)});
  }
  t.Print();

  std::printf("\nInner-level design (first 12 picks):\n");
  for (size_t i = 0; i < kept.structures.size() && i < 12; ++i) {
    const RecommendedStructure& s = kept.structures[i];
    std::printf("  %2zu. %-40s %s rows\n", i + 1, s.name.c_str(),
                FormatRowCount(s.space).c_str());
  }

  // What if the analysts pivot to product-level questions? Product is the
  // 30K-member dimension, so product-heavy queries need very different
  // structures than the store/day design. Re-evaluate the frozen design
  // under the new workload and compare with re-advising.
  Workload new_workload = HotDimensionSliceQueries(
      lattice, AttributeSet::Of({1}), /*hot_boost=*/24.0);
  StatusOr<Advisor> new_advisor = Advisor::Create(
      schema, sizes, new_workload, gopts);
  if (!new_advisor.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 new_advisor.status().ToString().c_str());
    return 1;
  }
  AdvisorConfig config;
  config.algorithm = Algorithm::kInnerLevel;
  config.space_budget = budget;
  Recommendation fresh = new_advisor->Recommend(config);

  SelectionState frozen(&new_advisor->cube_graph().graph);
  for (const StructureRef& s : kept.raw.picks) frozen.ApplyStructure(s);
  // Frequencies are normalized, so τ is already the weighted average cost.
  double frozen_avg = frozen.TotalCost() / new_workload.TotalFrequency();
  std::printf("\nWorkload drift (product-heavy analysis):\n");
  std::printf("  frozen store/day design: avg cost %s\n",
              FormatRowCount(frozen_avg).c_str());
  std::printf("  re-advised design:       avg cost %s (%.0f%% better)\n",
              FormatRowCount(fresh.average_query_cost).c_str(),
              100.0 * (1.0 - fresh.average_query_cost / frozen_avg));
  return 0;
}
