// Experiment E10 — cost-model validation (supports Section 4): the linear
// cost model claims answering γ_A σ_B from view V with index I_D costs
// |V| / |E| rows. We generate a scaled TPC-D fact table, materialize a full
// physical design, execute every slice-query shape against the real
// engine's indexes, and compare measured rows-processed against the model.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>

#include "bench_json.h"
#include "common/format.h"
#include "common/table_printer.h"
#include "cost/linear_cost_model.h"
#include "data/fact_generator.h"
#include "engine/executor.h"
#include "workload/workload.h"

namespace olapidx {
namespace {

void Run(bench::BenchJsonReporter* rep) {
  std::printf("== E10: engine-measured cost vs linear cost model ==\n\n");
  TpcdScaledConfig config;
  config.rows = 60'000;
  FactTable fact = GenerateTpcdScaledFacts(config);
  CubeSchema schema = fact.schema();
  Catalog catalog(&fact);

  // Exact view sizes from full materialization.
  ViewSizes sizes(3);
  for (uint32_t mask = 0; mask < 8; ++mask) {
    AttributeSet attrs = AttributeSet::FromMask(mask);
    sizes.Set(attrs, static_cast<double>(catalog.MaterializeView(attrs)));
  }
  // Build every fat index.
  CubeLattice lattice(schema);
  for (uint32_t v = 0; v < lattice.num_views(); ++v) {
    for (const IndexKey& key : lattice.FatIndexes(v)) {
      catalog.BuildIndex(lattice.AttrsOf(v), key);
    }
  }
  LinearCostModel model(&sizes);
  Executor executor(&catalog);

  std::printf("Scaled TPC-D: %zu rows; |ps|=%s |pc|=%s |sc|=%s (paper "
              "shape: ps tiny, pc/sc near base)\n\n",
              fact.num_rows(),
              FormatRowCount(sizes.SizeOf(AttributeSet::Of({0, 1}))).c_str(),
              FormatRowCount(sizes.SizeOf(AttributeSet::Of({0, 2}))).c_str(),
              FormatRowCount(sizes.SizeOf(AttributeSet::Of({1, 2})))
                  .c_str());

  TablePrinter t({"query", "plan", "model rows", "measured avg rows",
                  "ratio"});
  Workload all = AllSliceQueries(lattice);
  Pcg32 rng(99);
  double worst_ratio = 1.0;
  for (const WeightedQuery& wq : all.queries()) {
    const SliceQuery& q = wq.query;
    // Average measured cost over several random selection constants.
    constexpr int kTrials = 8;
    double measured = 0.0;
    ExecutionStats stats;
    for (int trial = 0; trial < kTrials; ++trial) {
      std::vector<uint32_t> values;
      for (int a : q.selection().ToVector()) {
        values.push_back(rng.NextBounded(
            static_cast<uint32_t>(schema.dimension(a).cardinality)));
      }
      executor.Execute(q, values, &stats);
      measured += static_cast<double>(stats.rows_processed);
    }
    measured /= kTrials;
    double modeled =
        stats.used_raw
            ? static_cast<double>(fact.num_rows())
            : model.QueryCost(q, stats.view, stats.index);
    double ratio = measured / std::max(1.0, modeled);
    // Track the worst discrepancy only where the model predicts a
    // non-trivial slice; point lookups into a sparse cube legitimately
    // return 0 rows for absent combinations while the model's |V|/|E| is
    // an average over *present* ones.
    if (modeled >= 10.0) {
      worst_ratio = std::max(worst_ratio,
                             std::max(ratio, 1.0 / std::max(1e-9, ratio)));
    }
    std::string plan = stats.used_raw
                           ? "raw"
                           : (stats.index.empty()
                                  ? "scan " + stats.view.ToString(
                                                  schema.names())
                                  : stats.index.ToString(schema.names()) +
                                        "(" +
                                        stats.view.ToString(schema.names()) +
                                        ")");
    t.AddRow({q.ToString(schema.names()), plan, FormatRowCount(modeled),
              FormatRowCount(measured), FormatFixed(ratio, 3)});
    if (rep != nullptr) {
      Json row = Json::Object();
      row.Set("label", Json::Str(q.ToString(schema.names())));
      row.Set("plan", Json::Str(plan));
      row.Set("model_rows", Json::Number(modeled));
      row.Set("measured_rows", Json::Number(measured));
      row.Set("ratio", Json::Number(ratio));
      rep->AddRun(std::move(row));
    }
  }
  t.Print();
  if (rep != nullptr) rep->AddScalar("worst_ratio", worst_ratio);

  // Micro-assert for the hoisted scan loop: Executor resolves predicate
  // and group-by column pointers once per query, not per row. Recompute
  // one slice naively — per-row attribute lookups straight off the fact
  // table — and abort on any divergence, then report the hoisted scan's
  // per-row cost so a regression shows up as a scalar, not just a vibe.
  {
    SliceQuery q(AttributeSet::Of({1}), AttributeSet::Of({2}));
    std::vector<uint32_t> values{fact.dim(17, 2)};
    ExecutionStats stats;
    GroupedResult got = executor.Execute(q, values, &stats);
    std::map<uint32_t, double> sums;
    std::map<uint32_t, uint64_t> counts;
    for (size_t r = 0; r < fact.num_rows(); ++r) {
      if (fact.dim(r, 2) != values[0]) continue;
      sums[fact.dim(r, 1)] += fact.measure(r);
      counts[fact.dim(r, 1)] += 1;
    }
    OLAPIDX_CHECK(got.keys.size() == sums.size());
    size_t slot = 0;
    for (const auto& [key, sum] : sums) {
      OLAPIDX_CHECK(got.keys[slot].size() == 1 && got.keys[slot][0] == key);
      OLAPIDX_CHECK(got.aggregates[slot].count == counts[key]);
      // The plan may aggregate in a different row order than the naive
      // loop, so sums agree to rounding, not bitwise.
      OLAPIDX_CHECK(std::fabs(got.sums[slot] - sum) <=
                    1e-9 * std::max(1.0, std::fabs(sum)));
      ++slot;
    }
    constexpr int kTimedTrials = 32;
    double t0 = 0.0, rows_timed = 0.0;
    {
      const auto start = std::chrono::steady_clock::now();
      for (int trial = 0; trial < kTimedTrials; ++trial) {
        executor.Execute(q, values, &stats);
        rows_timed += static_cast<double>(stats.rows_processed);
      }
      t0 = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
               .count();
    }
    double ns_per_row = 1e9 * t0 / std::max(1.0, rows_timed);
    std::printf(
        "\nHoisted-scan micro-assert passed (%zu groups); scan cost "
        "%.1f ns/row over %d trials.\n",
        sums.size(), ns_per_row, kTimedTrials);
    if (rep != nullptr) rep->AddScalar("hoisted_scan_ns_per_row", ns_per_row);
  }
  std::printf(
      "\nWorst-case model/measured discrepancy factor over slices with "
      "modeled cost >= 10 rows: %.2f.\nExact for scans; index paths use "
      "the model's *average* slice size, so per-slice measurements\n"
      "fluctuate around ratio 1.0, and point lookups for absent "
      "combinations return 0 rows.\n",
      worst_ratio);
}

}  // namespace
}  // namespace olapidx

int main(int argc, char** argv) {
  olapidx::bench::BenchArgs args =
      olapidx::bench::ParseBenchArgs(argc, argv, "engine_validation");
  olapidx::bench::BenchJsonReporter rep("engine_validation");
  olapidx::Run(args.json ? &rep : nullptr);
  olapidx::bench::FinishBenchJson(rep, args);
  return 0;
}
