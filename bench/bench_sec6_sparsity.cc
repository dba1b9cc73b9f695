// Experiment E6 — Section 6: varying the sparsity of the cube (the ratio
// of raw rows to the product of the dimension cardinalities). Sparsity
// controls how quickly subcube sizes saturate: dense cubes make coarse
// views cheap relative to the base cube, sparse cubes make nearly every
// view as large as the raw data (so indexes carry more of the benefit).

#include <cstdio>
#include <string>

#include "bench_common.h"
#include "common/table_printer.h"
#include "data/synthetic.h"
#include "workload/workload.h"

namespace olapidx {
namespace {

void Run(bench::BenchJsonReporter* rep) {
  std::printf("== E6: optimality ratio vs cube sparsity "
              "(Section 6, dim 4, cardinality 50) ==\n\n");
  TablePrinter t({"sparsity", "base rows", "base/full-domain", "1-greedy",
                  "2-greedy", "3-greedy", "inner", "two-step",
                  "index share (inner)"});
  for (double sparsity : {0.001, 0.005, 0.02, 0.1, 0.3, 0.8}) {
    SyntheticCube cube = UniformSyntheticCube(4, 50, sparsity);
    CubeLattice lattice(cube.schema);
    CubeGraphOptions opts;
    opts.raw_scan_penalty = 2.0;
    CubeGraph cg = bench::ValueOrExit(TryBuildCubeGraph(
        cube.schema, cube.sizes, AllSliceQueries(lattice), opts));
    double total =
        cube.sizes.TotalViewSpace() + cube.sizes.TotalFatIndexSpace();
    bench::FamilyResult f =
        bench::RunFamily(cg.graph, 0.04 * total, /*run_three=*/true);

    // How much of inner-level's space goes to indexes at this sparsity.
    SelectionResult inner = InnerLevelGreedy(cg.graph, 0.04 * total);
    double index_space = 0.0;
    for (const StructureRef& s : inner.picks) {
      if (!s.is_view()) index_space += cg.graph.structure_space(s);
    }
    double share =
        inner.space_used > 0 ? index_space / inner.space_used : 0.0;

    t.AddRow({FormatFixed(sparsity, 3), FormatRowCount(cube.raw_rows),
              FormatFixed(cube.sizes[cg.graph.num_views() - 1] /
                              cube.schema.DomainSize(
                                  cube.schema.AllAttributes()),
                          3),
              bench::Ratio(f.one), bench::Ratio(f.two),
              bench::Ratio(f.three), bench::Ratio(f.inner),
              bench::Ratio(f.two_step), FormatPercent(share)});
    if (rep != nullptr) {
      std::string label = "sparsity_" + FormatFixed(sparsity, 3);
      bench::AddFamilyRows(*rep, label, f);
      rep->AddScalar(label + "/index_share_inner", share);
    }
  }
  t.Print();
  std::printf("\n(* = vs certified upper bound.) Shape check: greedy "
              "stays near the bound across three decades of\nsparsity, "
              "and the space share it gives to indexes swings from ~2/3 "
              "to zero as the cube densifies —\nthe a-priori split the "
              "two-step process needs does not exist.\n");
}

}  // namespace
}  // namespace olapidx

int main(int argc, char** argv) {
  olapidx::bench::BenchArgs args =
      olapidx::bench::ParseBenchArgs(argc, argv, "sec6_sparsity");
  olapidx::bench::BenchJsonReporter rep("sec6_sparsity");
  olapidx::Run(args.json ? &rep : nullptr);
  olapidx::bench::FinishBenchJson(rep, args);
  return 0;
}
