// Experiment E9 — Section 4.2.2's pruning claim: because any index on V
// costs |V| space and a fat index dominates every proper prefix of itself
// on every query, restricting attention to fat indexes loses nothing while
// shrinking the candidate set by roughly a factor of e - 1 ≈ 1.72.
//
// This ablation builds the cube graph both ways and shows (a) identical
// achieved benefit, (b) the structure-count reduction, (c) the work saved.

#include <cstdio>
#include <string>

#include "bench_json.h"
#include "common/format.h"
#include "common/table_printer.h"
#include "core/cube_graph.h"
#include "core/inner_greedy.h"
#include "core/r_greedy.h"
#include "data/synthetic.h"
#include "workload/workload.h"

namespace olapidx {
namespace {

void Run(bench::BenchJsonReporter* rep) {
  std::printf("== E9: fat-index pruning ablation (Section 4.2.2) ==\n\n");
  TablePrinter t({"dim", "structures fat", "structures all", "ratio",
                  "benefit fat", "benefit all", "evals fat", "evals all"});
  for (int n = 2; n <= 5; ++n) {
    SyntheticCube cube = UniformSyntheticCube(n, 50, 0.05);
    CubeLattice lattice(cube.schema);
    Workload w = AllSliceQueries(lattice);
    CubeGraphOptions fat_opts;
    fat_opts.raw_scan_penalty = 2.0;
    CubeGraphOptions all_opts = fat_opts;
    all_opts.fat_indexes_only = false;
    CubeGraph fat = bench::ValueOrExit(
        TryBuildCubeGraph(cube.schema, cube.sizes, w, fat_opts));
    CubeGraph all = bench::ValueOrExit(
        TryBuildCubeGraph(cube.schema, cube.sizes, w, all_opts));

    double budget = 0.25 * (cube.sizes.TotalViewSpace() +
                            cube.sizes.TotalFatIndexSpace());
    SelectionResult rf = InnerLevelGreedy(fat.graph, budget);
    SelectionResult ra = InnerLevelGreedy(all.graph, budget);

    t.AddRow({std::to_string(n),
              std::to_string(fat.graph.num_structures()),
              std::to_string(all.graph.num_structures()),
              FormatFixed(static_cast<double>(all.graph.num_structures()) /
                              static_cast<double>(
                                  fat.graph.num_structures()),
                          2),
              FormatRowCount(rf.Benefit()), FormatRowCount(ra.Benefit()),
              std::to_string(rf.candidates_evaluated),
              std::to_string(ra.candidates_evaluated)});
    if (rep != nullptr) {
      Json row = Json::Object();
      row.Set("label", Json::Str("dim" + std::to_string(n)));
      row.Set("structures_fat",
              Json::Number(static_cast<double>(fat.graph.num_structures())));
      row.Set("structures_all",
              Json::Number(static_cast<double>(all.graph.num_structures())));
      row.Set("benefit_fat", Json::Number(rf.Benefit()));
      row.Set("benefit_all", Json::Number(ra.Benefit()));
      row.Set("evals_fat",
              Json::Number(static_cast<double>(rf.candidates_evaluated)));
      row.Set("evals_all",
              Json::Number(static_cast<double>(ra.candidates_evaluated)));
      rep->AddRun(std::move(row));
    }
  }
  t.Print();
  std::printf(
      "\nShape check: identical benefit with and without non-fat indexes, "
      "at proportionally more work.\nPer Section 4.2.2, a view with m "
      "attributes has ~e*m! ordered-subset indexes of which the ~(e-1)*m!\n"
      "non-fat ones are dominated, so the full universe approaches e = "
      "2.72x the fat one as m grows\n(measured per-lattice ratios above "
      "climb toward it).\n");
}

}  // namespace
}  // namespace olapidx

int main(int argc, char** argv) {
  olapidx::bench::BenchArgs args =
      olapidx::bench::ParseBenchArgs(argc, argv, "ablation_fat_pruning");
  olapidx::bench::BenchJsonReporter rep("ablation_fat_pruning");
  olapidx::Run(args.json ? &rep : nullptr);
  olapidx::bench::FinishBenchJson(rep, args);
  return 0;
}
