// Experiment E7 — Section 6: varying the query frequencies. The paper's
// problem statement (Section 5.1) notes the algorithms generalize from
// uniform frequencies to arbitrary f_i; this bench sweeps uniform, Zipf
// and hot-dimension workloads and reports both the optimality ratios and
// how the selected structures shift toward the hot queries.

#include <cstdio>
#include <string>

#include "bench_common.h"
#include "common/table_printer.h"
#include "core/selection_state.h"
#include "data/synthetic.h"
#include "workload/workload.h"

namespace olapidx {
namespace {

void Run(bench::BenchJsonReporter* rep) {
  std::printf("== E7: optimality ratio vs query-frequency skew "
              "(Section 6, dim 4, cardinality 100, sparsity 0.02) ==\n\n");
  SyntheticCube cube = UniformSyntheticCube(4, 100, 0.02);
  CubeLattice lattice(cube.schema);
  double total =
      cube.sizes.TotalViewSpace() + cube.sizes.TotalFatIndexSpace();

  TablePrinter t({"workload", "1-greedy", "2-greedy", "3-greedy", "inner",
                  "two-step"});
  auto add = [&](const std::string& label, const Workload& w) {
    CubeGraphOptions opts;
    opts.raw_scan_penalty = 2.0;
    CubeGraph cg = bench::ValueOrExit(
        TryBuildCubeGraph(cube.schema, cube.sizes, w, opts));
    bench::FamilyResult f =
        bench::RunFamily(cg.graph, 0.04 * total, /*run_three=*/true);
    t.AddRow({label, bench::Ratio(f.one), bench::Ratio(f.two),
              bench::Ratio(f.three), bench::Ratio(f.inner),
              bench::Ratio(f.two_step)});
    if (rep != nullptr) bench::AddFamilyRows(*rep, label, f);
  };
  add("uniform", AllSliceQueries(lattice));
  for (double skew : {0.5, 1.0, 2.0}) {
    add("Zipf skew " + FormatFixed(skew, 1),
        ZipfSliceQueries(lattice, skew, /*seed=*/42));
  }
  add("hot dims {0,1} x4",
      HotDimensionSliceQueries(lattice, AttributeSet::Of({0, 1}), 4.0));
  add("hot dim {3} x16",
      HotDimensionSliceQueries(lattice, AttributeSet::Of({3}), 16.0));
  t.Print();

  // Show that the selection genuinely follows the workload: evaluate the
  // selection made under the *uniform* workload against the *hot*
  // workload's τ — it must lose to the selection made under the hot
  // workload itself. Structure ids coincide across the two graphs (same
  // lattice, same enumeration order), so picks transfer directly.
  std::printf("\nWorkload-sensitivity check (inner-level, 4%% budget):\n");
  CubeGraphOptions opts;
  opts.raw_scan_penalty = 2.0;
  Workload hot_w =
      HotDimensionSliceQueries(lattice, AttributeSet::Of({3}), 16.0);
  Workload uni_w = AllSliceQueries(lattice);
  CubeGraph hot_g = bench::ValueOrExit(
      TryBuildCubeGraph(cube.schema, cube.sizes, hot_w, opts));
  CubeGraph uni_g = bench::ValueOrExit(
      TryBuildCubeGraph(cube.schema, cube.sizes, uni_w, opts));
  double budget = 0.04 * total;
  SelectionResult hot_sel = InnerLevelGreedy(hot_g.graph, budget);
  SelectionResult uni_sel = InnerLevelGreedy(uni_g.graph, budget);
  SelectionState cross(&hot_g.graph);
  for (const StructureRef& s : uni_sel.picks) cross.ApplyStructure(s);
  SelectionState native(&hot_g.graph);
  for (const StructureRef& s : hot_sel.picks) native.ApplyStructure(s);
  std::printf("  tau under hot workload, selection tuned for hot:     "
              "%s\n",
              FormatRowCount(native.TotalCost()).c_str());
  std::printf("  tau under hot workload, selection tuned for uniform: "
              "%s  (%.1f%% worse)\n",
              FormatRowCount(cross.TotalCost()).c_str(),
              100.0 * (cross.TotalCost() / native.TotalCost() - 1.0));
  if (rep != nullptr) {
    rep->AddScalar("hot_tau_native", native.TotalCost());
    rep->AddScalar("hot_tau_cross", cross.TotalCost());
  }
}

}  // namespace
}  // namespace olapidx

int main(int argc, char** argv) {
  olapidx::bench::BenchArgs args =
      olapidx::bench::ParseBenchArgs(argc, argv, "sec6_frequencies");
  olapidx::bench::BenchJsonReporter rep("sec6_frequencies");
  olapidx::Run(args.json ? &rep : nullptr);
  olapidx::bench::FinishBenchJson(rep, args);
  return 0;
}
