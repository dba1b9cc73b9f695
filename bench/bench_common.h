// Shared helpers for the Section 6 experiment benches: run the algorithm
// family on a cube instance and report each algorithm's benefit as a
// fraction of the optimality reference *for the space it actually used*
// (greedy stages may overshoot the budget; Theorems 5.1/5.2 compare against
// the optimum at the used space). The reference is the exact
// branch-and-bound optimum where feasible and a certified upper bound
// otherwise — so UB-based ratios are lower bounds on the true ratio.

#ifndef OLAPIDX_BENCH_BENCH_COMMON_H_
#define OLAPIDX_BENCH_BENCH_COMMON_H_

#include <string>

#include "bench_json.h"
#include "common/format.h"
#include "core/cube_graph.h"
#include "core/inner_greedy.h"
#include "core/optimal.h"
#include "core/r_greedy.h"
#include "core/two_step.h"

namespace olapidx::bench {

struct AlgoOutcome {
  double benefit = 0.0;
  double space_used = 0.0;
  double ratio = 0.0;       // benefit / reference(space_used)
  bool ratio_exact = false; // reference was a proven optimum
  bool ran = false;
  // Carried over from the SelectionResult for JSON reporting.
  double tau = 0.0;
  double wall_ms = 0.0;
  uint64_t stages = 0;
  uint64_t candidates = 0;
};

struct FamilyResult {
  AlgoOutcome one, two, three, inner, two_step;
  double budget = 0.0;
};

inline AlgoOutcome Finish(const QueryViewGraph& g, SelectionResult r,
                          uint32_t max_exact_structures,
                          uint64_t node_limit) {
  AlgoOutcome out;
  out.ran = true;
  out.benefit = r.Benefit();
  out.space_used = r.space_used;
  out.tau = r.final_cost;
  out.wall_ms = static_cast<double>(r.stats.total_wall_micros) / 1000.0;
  out.stages = r.stats.stages;
  out.candidates = r.candidates_evaluated;
  double reference = 0.0;
  bool exact = false;
  if (g.num_structures() <= max_exact_structures) {
    SelectionResult opt = BranchAndBoundOptimal(
        g, r.space_used, OptimalOptions{.node_limit = node_limit});
    if (opt.proven_optimal) {
      reference = opt.Benefit();
      exact = true;
    }
  }
  if (!exact) reference = ValueOrExit(UpperBoundBenefit(g, r.space_used));
  out.ratio = reference > 0.0 ? out.benefit / reference : 1.0;
  out.ratio_exact = exact;
  return out;
}

// Runs the family at `budget`. r = 3 runs only when `run_three`, with at
// most `three_cap` index subsets enumerated per view per stage (SIZE_MAX =
// exact; dimension-6 base views have C(720,2) ≈ 2.6e5 pairs).
inline FamilyResult RunFamily(const QueryViewGraph& g, double budget,
                              bool run_three,
                              uint32_t max_exact_structures = 40,
                              uint64_t node_limit = 20'000'000,
                              size_t three_cap = 200'000) {
  FamilyResult out;
  out.budget = budget;
  out.one = Finish(g, RGreedy(g, budget, RGreedyOptions{.r = 1}),
                   max_exact_structures, node_limit);
  out.two = Finish(g, RGreedy(g, budget, RGreedyOptions{.r = 2}),
                   max_exact_structures, node_limit);
  if (run_three) {
    out.three = Finish(
        g,
        RGreedy(g, budget,
                RGreedyOptions{.r = 3, .max_subsets_per_view = three_cap}),
        max_exact_structures, node_limit);
  }
  out.inner = Finish(g, InnerLevelGreedy(g, budget), max_exact_structures,
                     node_limit);
  out.two_step = Finish(
      g,
      TwoStep(g, budget,
              TwoStepOptions{.index_fraction = 0.5, .strict_fit = true}),
      max_exact_structures, node_limit);
  return out;
}

inline std::string Ratio(const AlgoOutcome& a) {
  if (!a.ran) return "-";
  return FormatFixed(a.ratio, 3) + (a.ratio_exact ? "" : "*");
}

// One JSON row per algorithm that ran, labeled "<label>/<algo>". Used by
// the Section 6 sweep benches so every table row lands in the report.
inline void AddFamilyRows(BenchJsonReporter& rep, const std::string& label,
                          const FamilyResult& f) {
  auto add = [&](const char* algo, const AlgoOutcome& a) {
    if (!a.ran) return;
    Json row = Json::Object();
    row.Set("label", Json::Str(label + "/" + algo));
    row.Set("tau", Json::Number(a.tau));
    row.Set("benefit", Json::Number(a.benefit));
    row.Set("space", Json::Number(a.space_used));
    row.Set("ratio", Json::Number(a.ratio));
    row.Set("ratio_exact", Json::Bool(a.ratio_exact));
    row.Set("stages", Json::Number(static_cast<double>(a.stages)));
    row.Set("candidates_evaluated",
            Json::Number(static_cast<double>(a.candidates)));
    row.Set("wall_ms", Json::Number(a.wall_ms));
    rep.AddRun(std::move(row));
  };
  add("one_greedy", f.one);
  add("two_greedy", f.two);
  add("three_greedy", f.three);
  add("inner_level", f.inner);
  add("two_step", f.two_step);
}

}  // namespace olapidx::bench

#endif  // OLAPIDX_BENCH_BENCH_COMMON_H_
