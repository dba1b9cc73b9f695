// What-if analysis: how does query performance respond to the space
// budget, and where do the diminishing returns set in? Sweeps the budget
// on the paper's TPC-D instance for several algorithms and prints the
// cost-vs-space frontier, the kind of chart a DBA would consult before
// buying disks.

#include <cstdio>

#include "common/format.h"
#include "common/table_printer.h"
#include "core/advisor.h"
#include "data/tpcd.h"

int main() {
  using namespace olapidx;
  CubeSchema schema = TpcdSchema();
  CubeLattice lattice(schema);
  CubeGraphOptions gopts;
  gopts.raw_scan_penalty = 2.0;
  StatusOr<Advisor> advisor = Advisor::Create(
      schema, TpcdPaperSizes(), AllSliceQueries(lattice), gopts);
  if (!advisor.ok()) {
    std::fprintf(stderr, "error: %s\n", advisor.status().ToString().c_str());
    return 1;
  }

  double everything = TpcdPaperSizes().TotalViewSpace() +
                      TpcdPaperSizes().TotalFatIndexSpace();
  std::printf("What-if: average query cost vs space budget (TPC-D, "
              "materialize-everything = %s rows)\n\n",
              FormatRowCount(everything).c_str());

  TablePrinter t({"budget", "inner-level", "1-greedy",
                  "two-step 50/50 strict", "views-only"});
  for (double budget : {2e6, 5e6, 8e6, 12e6, 16e6, 20e6, 25e6, 30e6, 40e6,
                        81e6}) {
    std::vector<std::string> row = {FormatRowCount(budget)};
    for (Algorithm algo : {Algorithm::kInnerLevel, Algorithm::kOneGreedy,
                           Algorithm::kTwoStep, Algorithm::kHruViewsOnly}) {
      AdvisorConfig config;
      config.algorithm = algo;
      config.space_budget = budget;
      config.two_step.index_fraction = 0.5;
      config.two_step.strict_fit = true;
      Recommendation rec = advisor->Recommend(config);
      row.push_back(FormatRowCount(rec.average_query_cost));
    }
    t.AddRow(row);
  }
  t.Print();

  // ASCII frontier for the inner-level column.
  std::printf("\nInner-level frontier (each # = 100K rows of average "
              "query cost):\n");
  for (double budget : {2e6, 5e6, 8e6, 12e6, 16e6, 20e6, 25e6, 30e6}) {
    AdvisorConfig config;
    config.algorithm = Algorithm::kInnerLevel;
    config.space_budget = budget;
    Recommendation rec = advisor->Recommend(config);
    int bars = static_cast<int>(rec.average_query_cost / 1e5);
    std::printf("  %6s |%s\n", FormatRowCount(budget).c_str(),
                std::string(static_cast<size_t>(bars), '#').c_str());
  }
  std::printf("\nReading the knee: beyond ~25M rows the curve is flat — "
              "Example 2.1's law of diminishing returns.\n");
  return 0;
}
