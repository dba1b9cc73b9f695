// End-to-end advisor walkthrough on real (generated) data:
//
//   1. generate a scaled TPC-D-like fact table,
//   2. estimate every subcube's size by sampling (GEE estimator) instead of
//      materializing the cube,
//   3. run the selection algorithm under a budget,
//   4. materialize the recommended views and indexes,
//   5. execute the whole slice-query workload and measure the actual rows
//      processed, comparing against both the raw-table baseline and the
//      advisor's predictions.

#include <cstdio>

#include "common/format.h"
#include "common/table_printer.h"
#include "core/advisor.h"
#include "cost/distinct_estimator.h"
#include "data/fact_generator.h"
#include "engine/executor.h"
#include "engine/key_codec.h"

namespace {

using namespace olapidx;

// Estimates |V| for every subcube from a row sample of the fact table.
ViewSizes EstimateSizesBySampling(const FactTable& fact, size_t sample_size,
                                  uint64_t seed) {
  const CubeSchema& schema = fact.schema();
  Pcg32 rng(seed);
  std::vector<size_t> rows(sample_size);
  for (size_t i = 0; i < sample_size; ++i) {
    rows[i] = rng.NextBounded(static_cast<uint32_t>(fact.num_rows()));
  }
  ViewSizes sizes(schema.num_dimensions());
  for (uint32_t mask = 1; mask < sizes.num_views(); ++mask) {
    AttributeSet attrs = AttributeSet::FromMask(mask);
    KeyCodec codec(schema, attrs.ToVector());
    std::vector<uint64_t> sample;
    sample.reserve(sample_size);
    for (size_t r : rows) {
      sample.push_back(codec.EncodeRow(fact.RowDims(r)));
    }
    sizes.Set(attrs, std::max(1.0, GeeEstimate(sample, fact.num_rows())));
  }
  return sizes;
}

}  // namespace

int main() {
  TpcdScaledConfig gen;
  gen.rows = 60'000;
  std::printf("Generating scaled TPC-D fact table: %zu rows "
              "(parts=%u suppliers=%u customers=%u)...\n",
              gen.rows, gen.parts, gen.suppliers, gen.customers);
  FactTable fact = GenerateTpcdScaledFacts(gen);
  CubeSchema schema = fact.schema();

  std::printf("Estimating subcube sizes from a 4K-row sample (GEE)...\n");
  ViewSizes sizes = EstimateSizesBySampling(fact, 4'000, /*seed=*/17);
  {
    TablePrinter t({"subcube", "estimated rows"});
    for (uint32_t mask = sizes.num_views(); mask-- > 1;) {
      t.AddRow({AttributeSet::FromMask(mask).ToString(schema.names()),
                FormatRowCount(sizes[mask])});
    }
    t.Print();
  }

  CubeLattice lattice(schema);
  Workload workload = AllSliceQueries(lattice);
  CubeGraphOptions gopts;
  gopts.raw_scan_penalty = 2.0;
  StatusOr<Advisor> advisor = Advisor::Create(schema, sizes, workload, gopts);
  if (!advisor.ok()) {
    std::fprintf(stderr, "error: %s\n", advisor.status().ToString().c_str());
    return 1;
  }

  AdvisorConfig config;
  config.algorithm = Algorithm::kInnerLevel;
  config.space_budget = 0.3 * (sizes.TotalViewSpace() +
                               sizes.TotalFatIndexSpace());
  Recommendation rec = advisor->Recommend(config);
  std::printf("\nRecommendation (budget %s rows): %s\n",
              FormatRowCount(config.space_budget).c_str(),
              rec.raw.PicksToString(advisor->cube_graph().graph).c_str());

  std::printf("Materializing...\n");
  Catalog catalog(&fact);
  for (const RecommendedStructure& s : rec.structures) {
    if (s.is_view()) {
      catalog.MaterializeView(s.view);
    } else {
      catalog.BuildIndex(s.view, s.index);
    }
  }
  std::printf("\nEstimated vs actual sizes of the materialized views:\n");
  {
    TablePrinter t({"subcube", "estimated", "actual"});
    for (AttributeSet attrs : catalog.materialized_views()) {
      t.AddRow({attrs.ToString(schema.names()),
                FormatRowCount(sizes.SizeOf(attrs)),
                FormatRowCount(
                    static_cast<double>(catalog.view(attrs).num_rows()))});
    }
    t.Print();
  }
  std::printf(
      "Total space: %s rows actual vs %s estimated. GEE guarantees only a "
      "sqrt(N/n) factor, and\nnear-unique subcubes (psc, pc, sc) sit at its "
      "underestimation edge — the classic estimation risk\nSection 4.2.1 "
      "delegates to sampling. The design still pays off:\n",
      FormatRowCount(catalog.TotalSpaceRows()).c_str(),
      FormatRowCount(rec.space_used).c_str());

  std::printf("\nExecuting all %zu slice queries (8 random slices "
              "each)...\n",
              workload.size());
  Executor executor(&catalog);
  Pcg32 rng(5);
  double with_rows = 0.0;
  double naive_rows = 0.0;
  for (const WeightedQuery& wq : workload.queries()) {
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<uint32_t> values;
      for (int a : wq.query.selection().ToVector()) {
        values.push_back(rng.NextBounded(
            static_cast<uint32_t>(schema.dimension(a).cardinality)));
      }
      ExecutionStats stats;
      executor.Execute(wq.query, values, &stats);
      with_rows += static_cast<double>(stats.rows_processed);
      naive_rows += static_cast<double>(fact.num_rows());
    }
  }
  double executed = static_cast<double>(workload.size()) * 8.0;
  std::printf("\nAverage rows processed per query:\n");
  std::printf("  raw fact table only: %s\n",
              FormatRowCount(naive_rows / executed).c_str());
  std::printf("  with recommendation: %s  (%.0fx speedup)\n",
              FormatRowCount(with_rows / executed).c_str(),
              naive_rows / with_rows);
  std::printf("  advisor's model prediction: %s\n",
              FormatRowCount(rec.average_query_cost).c_str());
  return 0;
}
