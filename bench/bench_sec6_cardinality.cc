// Experiment E5 — Section 6: varying the cardinality of each dimension
// (uniform and mixed), dimension fixed at 4. The paper varied per-dimension
// cardinalities among its experiment knobs; the finding to reproduce is
// that the greedy family stays near-optimal across the sweep.

#include <cstdio>
#include <string>

#include "bench_common.h"
#include "common/table_printer.h"
#include "data/synthetic.h"
#include "workload/workload.h"

namespace olapidx {
namespace {

bench::FamilyResult RunCube(const SyntheticCube& cube) {
  CubeLattice lattice(cube.schema);
  CubeGraphOptions opts;
  opts.raw_scan_penalty = 2.0;
  CubeGraph cg = bench::ValueOrExit(TryBuildCubeGraph(
      cube.schema, cube.sizes, AllSliceQueries(lattice), opts));
  double total =
      cube.sizes.TotalViewSpace() + cube.sizes.TotalFatIndexSpace();
  // 4% of everything: tight enough that choices matter.
  return bench::RunFamily(cg.graph, 0.04 * total, /*run_three=*/true);
}

void Run(bench::BenchJsonReporter* rep) {
  std::printf("== E5: optimality ratio vs dimension cardinality "
              "(Section 6, dim 4, sparsity 0.02) ==\n\n");
  TablePrinter t({"cardinalities", "base rows", "1-greedy", "2-greedy",
                  "3-greedy", "inner", "two-step"});
  auto add = [&](const std::string& label, const SyntheticCube& cube) {
    bench::FamilyResult f = RunCube(cube);
    t.AddRow({label, FormatRowCount(cube.raw_rows), bench::Ratio(f.one),
              bench::Ratio(f.two), bench::Ratio(f.three),
              bench::Ratio(f.inner), bench::Ratio(f.two_step)});
    if (rep != nullptr) bench::AddFamilyRows(*rep, label, f);
  };
  for (uint64_t card : {10u, 30u, 100u, 300u, 1000u}) {
    add("uniform " + std::to_string(card),
        UniformSyntheticCube(4, card, 0.02));
  }
  add("mixed 10/100/1000/10000",
      SyntheticCubeWithCardinalities({10, 100, 1000, 10000}, 0.02));
  add("mixed 5000/5000/10/10",
      SyntheticCubeWithCardinalities({5000, 5000, 10, 10}, 0.02));
  for (uint64_t seed : {1u, 2u, 3u}) {
    add("log-uniform [10,1000] seed " + std::to_string(seed),
        RandomSyntheticCube(4, 10, 1000, 0.02, seed));
  }
  t.Print();
  std::printf("\n(* = vs certified upper bound — the true optimality "
              "ratio is at least the printed value.)\nShape check: the "
              "greedy family stays within 10-20%% of the bound across two "
              "decades of cardinality while the\nfixed-split two-step drops "
              "to half (the Section 6 / Section 2 findings).\n");
}

}  // namespace
}  // namespace olapidx

int main(int argc, char** argv) {
  olapidx::bench::BenchArgs args =
      olapidx::bench::ParseBenchArgs(argc, argv, "sec6_cardinality");
  olapidx::bench::BenchJsonReporter rep("sec6_cardinality");
  olapidx::Run(args.json ? &rep : nullptr);
  olapidx::bench::FinishBenchJson(rep, args);
  return 0;
}
