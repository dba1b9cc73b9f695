// Experiment E1 — Section 2 / Figure 1 / Example 2.1.
//
// The motivating TPC-D instance: 25M rows of space, all 27 slice queries
// equiprobable. The paper reports an average query cost of 1.18M rows for
// the two-step process (equal split, each step fitting its allotment) and
// 0.74M rows for the integrated 1-greedy — "almost 40 percent" better —
// plus "around 80M rows" to materialize everything and a law of
// diminishing returns beyond 25M.

#include <cstdio>

#include "bench_json.h"
#include "common/format.h"
#include "common/table_printer.h"
#include "core/advisor.h"
#include "data/tpcd.h"

namespace olapidx {
namespace {

Advisor MakeAdvisor() {
  CubeSchema schema = TpcdSchema();
  CubeLattice lattice(schema);
  CubeGraphOptions opts;
  opts.raw_scan_penalty = 2.0;  // raw = normalized TPC-D tables (join work)
  return bench::ValueOrExit(Advisor::Create(schema, TpcdPaperSizes(),
                                            AllSliceQueries(lattice), opts));
}

void Run(bench::BenchJsonReporter* rep) {
  Advisor advisor = MakeAdvisor();
  ViewSizes sizes = TpcdPaperSizes();

  std::printf("== E1: TPC-D motivating example (Section 2, Figure 1) ==\n\n");
  std::printf("Subcube sizes (paper's Figure 1):\n");
  {
    TablePrinter t({"subcube", "rows"});
    const std::vector<std::string>& names = advisor.schema().names();
    for (uint32_t mask = 8; mask-- > 0;) {
      AttributeSet attrs = AttributeSet::FromMask(mask);
      t.AddRow({attrs.ToString(names), FormatRowCount(sizes[mask])});
    }
    t.Print();
  }
  std::printf(
      "\nSpace to materialize every subcube and fat index: %s rows "
      "(paper: ~80M)\n\n",
      FormatRowCount(sizes.TotalViewSpace() + sizes.TotalFatIndexSpace())
          .c_str());

  auto run = [&](Algorithm algo, const char* label, const char* json_label,
                 double budget) {
    AdvisorConfig config;
    config.algorithm = algo;
    config.space_budget = budget;
    config.r_greedy.r = 1;
    config.two_step.index_fraction = 0.5;
    config.two_step.strict_fit = true;
    Recommendation rec = advisor.Recommend(config);
    std::printf("%-28s avg query cost %s rows  (space used %s)\n", label,
                FormatRowCount(rec.average_query_cost).c_str(),
                FormatRowCount(rec.space_used).c_str());
    std::printf("    picks: %s\n",
                rec.raw.PicksToString(advisor.cube_graph().graph).c_str());
    if (rep != nullptr) rep->AddSelectionRun(json_label, rec.raw);
    return rec;
  };

  std::printf("Selections at S = 25M rows:\n");
  Recommendation two =
      run(Algorithm::kTwoStep, "two-step (50/50, strict)", "two_step",
          25e6);
  Recommendation one = run(Algorithm::kOneGreedy, "1-greedy (one step)",
                           "one_greedy", 25e6);
  run(Algorithm::kInnerLevel, "inner-level greedy", "inner_level", 25e6);
  run(Algorithm::kHruViewsOnly, "HRU views-only", "hru_views_only", 25e6);

  std::printf("\nPaper vs measured:\n");
  TablePrinter t({"metric", "paper", "measured"});
  t.AddRow({"two-step avg cost", "1.18M",
            FormatRowCount(two.average_query_cost)});
  t.AddRow({"1-greedy avg cost", "0.74M",
            FormatRowCount(one.average_query_cost)});
  double improvement = 1.0 - one.average_query_cost / two.average_query_cost;
  t.AddRow({"one-step improvement", "~40%", FormatPercent(improvement)});
  double index_space = 0.0;
  for (const RecommendedStructure& s : one.structures) {
    if (!s.is_view()) index_space += s.space;
  }
  t.AddRow({"index share of space", "~75%",
            FormatPercent(index_space / one.space_used)});
  t.Print();
  if (rep != nullptr) {
    rep->AddScalar("two_step_avg_cost", two.average_query_cost);
    rep->AddScalar("one_greedy_avg_cost", one.average_query_cost);
    rep->AddScalar("one_step_improvement", improvement);
    rep->AddScalar("index_share_of_space", index_space / one.space_used);
  }

  std::printf(
      "\nLaw of diminishing returns (1-greedy, growing budget):\n");
  TablePrinter curve({"budget", "avg query cost", "space used"});
  for (double budget : {5e6, 10e6, 15e6, 20e6, 25e6, 40e6, 60e6, 81e6}) {
    AdvisorConfig config;
    config.algorithm = Algorithm::kOneGreedy;
    config.space_budget = budget;
    Recommendation rec = advisor.Recommend(config);
    curve.AddRow({FormatRowCount(budget),
                  FormatRowCount(rec.average_query_cost),
                  FormatRowCount(rec.space_used)});
    if (rep != nullptr) {
      rep->AddSelectionRun(
          "one_greedy_budget_" +
              std::to_string(static_cast<long long>(budget / 1e6)) + "M",
          rec.raw);
    }
  }
  curve.Print();
  std::printf(
      "\nThe structures beyond ~25M provide virtually no benefit "
      "(Example 2.1).\n");
}

}  // namespace
}  // namespace olapidx

int main(int argc, char** argv) {
  olapidx::bench::BenchArgs args =
      olapidx::bench::ParseBenchArgs(argc, argv, "fig1_tpcd");
  olapidx::bench::BenchJsonReporter rep("fig1_tpcd");
  olapidx::Run(args.json ? &rep : nullptr);
  olapidx::bench::FinishBenchJson(rep, args);
  return 0;
}
