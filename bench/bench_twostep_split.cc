// Experiment E8 — Section 2's observation that the right view/index space
// split cannot be chosen a priori: on the TPC-D instance the best two-step
// split gives about three quarters of the space to indexes, and a bad
// split is catastrophic. Sweeps the index fraction under both budget
// semantics and compares with the integrated one-step algorithms.

#include <cstdio>
#include <string>

#include "bench_json.h"
#include "common/format.h"
#include "common/table_printer.h"
#include "core/advisor.h"
#include "data/tpcd.h"

namespace olapidx {
namespace {

void Run(bench::BenchJsonReporter* rep) {
  CubeSchema schema = TpcdSchema();
  CubeLattice lattice(schema);
  CubeGraphOptions opts;
  opts.raw_scan_penalty = 2.0;
  Advisor advisor = bench::ValueOrExit(Advisor::Create(
      schema, TpcdPaperSizes(), AllSliceQueries(lattice), opts));

  std::printf("== E8: two-step split sweep on TPC-D (S = 25M) ==\n\n");
  TablePrinter t({"index fraction", "strict avg cost", "strict space",
                  "loose avg cost", "loose space"});
  for (double f : {0.0, 0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 1.0}) {
    std::string cells[4];
    int i = 0;
    for (bool strict : {true, false}) {
      AdvisorConfig config;
      config.algorithm = Algorithm::kTwoStep;
      config.space_budget = kTpcdExampleBudget;
      config.two_step.index_fraction = f;
      config.two_step.strict_fit = strict;
      Recommendation rec = advisor.Recommend(config);
      cells[i++] = FormatRowCount(rec.average_query_cost);
      cells[i++] = FormatRowCount(rec.space_used);
      if (rep != nullptr) {
        rep->AddSelectionRun("split_" + FormatPercent(f, 0) +
                                 (strict ? "_strict" : "_loose"),
                             rec.raw);
      }
    }
    t.AddRow({FormatPercent(f, 0), cells[0], cells[1], cells[2],
              cells[3]});
  }
  t.Print();

  AdvisorConfig one;
  one.algorithm = Algorithm::kOneGreedy;
  one.space_budget = kTpcdExampleBudget;
  Recommendation one_rec = advisor.Recommend(one);
  double index_space = 0.0;
  for (const RecommendedStructure& s : one_rec.structures) {
    if (!s.is_view()) index_space += s.space;
  }
  std::printf(
      "\nIntegrated 1-greedy: avg cost %s, and it chose the split itself: "
      "%s of its space went to indexes\n(paper: \"we are best off "
      "allocating three-quarters of the available space to the "
      "indexes\").\n",
      FormatRowCount(one_rec.average_query_cost).c_str(),
      FormatPercent(index_space / one_rec.space_used).c_str());
  std::printf(
      "No fixed split matches it across instances — the fraction depends "
      "on subcube/index sizes (Section 2).\n");
  if (rep != nullptr) {
    rep->AddSelectionRun("one_greedy", one_rec.raw);
    rep->AddScalar("one_greedy_avg_cost", one_rec.average_query_cost);
    rep->AddScalar("one_greedy_index_share",
                   index_space / one_rec.space_used);
  }
}

}  // namespace
}  // namespace olapidx

int main(int argc, char** argv) {
  olapidx::bench::BenchArgs args =
      olapidx::bench::ParseBenchArgs(argc, argv, "twostep_split");
  olapidx::bench::BenchJsonReporter rep("twostep_split");
  olapidx::Run(args.json ? &rep : nullptr);
  olapidx::bench::FinishBenchJson(rep, args);
  return 0;
}
