// Experiment E4 — Section 6: r-greedy (r = 1, 2, 3) and inner-level greedy
// on cubes of dimension up to 6, compared against the optimum. The paper
// reports that "for dimensions up to 6 ... the algorithms in the r-greedy
// family produced solutions that were extremely close to the optimal".
//
// We compute exact optima (branch-and-bound) for dims 2-3 and a certified
// upper bound on the optimum for dims 4-6, so every ratio printed is a
// *lower* bound on the true optimality ratio.

#include <cstdio>
#include <string>

#include "bench_common.h"
#include "common/table_printer.h"
#include "data/synthetic.h"
#include "workload/workload.h"

namespace olapidx {
namespace {

void Run(bench::BenchJsonReporter* rep) {
  std::printf("== E4: optimality ratio vs cube dimension (Section 6) ==\n");
  std::printf("Uniform cardinality 100, sparsity 0.05, all 3^n slice "
              "queries, budget swept as a fraction of the total\n"
              "view+index space, raw-scan penalty 2. Each ratio compares "
              "against the optimum for the space that run used.\n\n");

  TablePrinter t({"dim", "budget", "structures", "queries", "1-greedy",
                  "2-greedy", "3-greedy", "inner", "two-step"});
  for (int n = 2; n <= 6; ++n) {
    SyntheticCube cube = UniformSyntheticCube(n, 100, 0.05);
    CubeLattice lattice(cube.schema);
    CubeGraphOptions opts;
    opts.raw_scan_penalty = 2.0;
    CubeGraph cg = bench::ValueOrExit(TryBuildCubeGraph(
        cube.schema, cube.sizes, AllSliceQueries(lattice), opts));
    double total = cube.sizes.TotalViewSpace() +
                   cube.sizes.TotalFatIndexSpace();
    // At n = 6 the base view alone has C(720,2) ≈ 2.6e5 index pairs per
    // stage; cap the per-view subset enumeration there (marked ^).
    size_t three_cap = n <= 5 ? SIZE_MAX : 2'000;
    for (double frac : {0.02, 0.08, 0.25}) {
      bench::FamilyResult f = bench::RunFamily(
          cg.graph, frac * total, /*run_three=*/true, 40, 20'000'000,
          three_cap);
      t.AddRow({std::to_string(n), FormatPercent(frac, 0),
                std::to_string(cg.graph.num_structures()),
                std::to_string(cg.graph.num_queries()),
                bench::Ratio(f.one), bench::Ratio(f.two),
                bench::Ratio(f.three) + (n >= 6 ? "^" : ""),
                bench::Ratio(f.inner), bench::Ratio(f.two_step)});
      if (rep != nullptr) {
        bench::AddFamilyRows(*rep,
                             "dim" + std::to_string(n) + "_budget" +
                                 FormatPercent(frac, 0),
                             f);
      }
    }
  }
  t.Print();
  std::printf("\n(* = ratio vs a certified upper bound rather than the "
              "exact optimum — a lower bound on the true ratio.\n ^ = "
              "r = 3 subset enumeration capped at 2000 per view per "
              "stage at dimension 6.)\n");
  std::printf(
      "\nPaper: near-optimal for all r on dims <= 6; note 1-greedy's "
      "guarantee is 0 yet it does well on\nnon-adversarial cubes — "
      "exactly the Section 6 observation.\n");
}

}  // namespace
}  // namespace olapidx

int main(int argc, char** argv) {
  olapidx::bench::BenchArgs args =
      olapidx::bench::ParseBenchArgs(argc, argv, "sec6_dimension");
  olapidx::bench::BenchJsonReporter rep("sec6_dimension");
  olapidx::Run(args.json ? &rep : nullptr);
  olapidx::bench::FinishBenchJson(rep, args);
  return 0;
}
