// advisor_cli: a command-line physical-design advisor.
//
//   advisor_cli --dims p:200000,s:10000,c:100000
//               [--rows 6000000 | --sizes sizes.txt]
//               [--workload log.txt] --budget 25000000
//               [--algorithm inner|1greedy|2greedy|3greedy|twostep|
//                viewsonly|optimal]
//               [--index-fraction 0.5] [--maintenance 0.0]
//               [--raw-penalty 2.0] [--threads N] [--out design.txt]
//               [--dump-sizes sizes.txt]
//               [--deadline-ms 500] [--max-stages N]
//               [--checkpoint ckpt.txt] [--resume ckpt.txt]
//               [--metrics-json metrics.json] [--trace-json trace.json]
//               [--sparse] [--top-queries N] [--query-mass F]
//               [--max-views N] [--beam B]
//               [--zipf-queries N] [--zipf-skew S] [--zipf-seed SEED]
//               [--cost-model paper|calibrated:FILE]
//   advisor_cli --csv facts.csv --budget 10000 [...]
//   advisor_cli --hierarchy store:400/60/8,day:365/12 --rows 3000000
//               --budget 50000 [...]
//
// --sparse switches to the workload-pruned graph (core/sparse_cube_graph.h)
// and is the only way past n = 8: --top-queries/--query-mass prune the
// workload, --max-views caps the retained lattice, and cost columns are
// stored compressed. --beam B caps per-stage greedy re-evaluations at the
// B most promising dirty views (stale-bound ranking); the printed beam
// factor is the a-posteriori per-stage guarantee. Beyond 10 dimensions a
// workload must be explicit: --workload FILE or --zipf-queries N (a
// sampled Zipf(--zipf-skew) workload of N distinct slice queries,
// deterministic in --zipf-seed).
//
// --replay FILE replays a saved workload (query-log format, counts
// expanded into repeated requests) through the batched serving path
// (engine/batch_executor.h) against the recommended design — views
// compressed to columnar stores — and prints the measured totals next to
// the model-predicted cost of the same workload on the same design. The
// replay runs on the --csv facts when given, else on synthetic Zipf facts
// sized from --rows (capped at 250K rows). Incompatible with --hierarchy.
//
// --cost-model picks the edge-cost model behind the CostModel seam:
// "paper" (the default |C|/|E| linear model) or "calibrated:FILE", an
// "olapidx-costmodel v2" file fitted by the calibration pipeline (write
// one with bench_calibration --save-model=FILE). A missing or malformed
// model file exits with the InvalidArgument exit code. Works in all three
// modes (flat, --sparse, --hierarchy).
//
// --hierarchy switches to the hierarchical lattice: each dimension lists
// its per-level cardinalities finest→coarsest (store:400/60/8 = 400
// stores, 60 cities, 8 regions, plus the implicit ALL). Sizes come from
// the analytical model (--rows is required), the workload is all
// hierarchical slice queries (or a sampled Zipf workload with
// --zipf-queries), and the recommendation is printed as level vectors
// plus index dimension orders. --sparse composes with --hierarchy: the
// workload-pruned hierarchical build (--top-queries/--query-mass/
// --max-views apply), the only way past lattices whose dense census
// overflows. The flat-cube inputs (--dims, --csv, --sizes, --workload,
// --out, --dump-sizes, --checkpoint, --resume, --replay) do not apply in
// this mode; --algorithm, --budget, --raw-penalty, --maintenance,
// --threads, --deadline-ms, --max-stages, --metrics-json, and --trace-json
// all do.
//
// Every numeric flag, and every cardinality in --dims and --hierarchy, is
// parsed whole: "--maintenance abc" or "--raw-penalty 2x" prints the usage
// and exits 2.
//
// Dimension sizes come from --sizes (olapidx-sizes v1 file), from the
// analytical model given --rows, or — with --csv — measured from the data
// itself (exact distinct counts up to 200K rows, HyperLogLog beyond). The
// workload file uses the query-log format of workload/query_log.h;
// without it, all 3^n slice queries are equiprobable. The chosen design
// is printed and optionally written in the olapidx-design v1 format
// (see core/serialize.h).
//
// Anytime runs: --deadline-ms (wall clock) and --max-stages (deterministic
// stage budget) interrupt the greedy algorithms mid-run; the best-so-far
// Observability: --metrics-json FILE writes the run's metrics-registry
// delta (common/metrics.h JSON form; "{}"-like empty document when the
// build has OLAPIDX_METRICS=OFF), and --trace-json FILE enables the span
// tracer for the run and writes the captured spans (common/trace.h).
//
// design is printed, and with --checkpoint FILE the pick prefix is saved
// in the olapidx-checkpoint v1 format. A later run with --resume FILE (and
// the same inputs, algorithm, and budget) continues where it stopped,
// reproducing the uninterrupted pick sequence bit-exactly.
//
// Exit codes: 0 on success, 2 for usage errors and plain file I/O
// failures, and a distinct per-StatusCode value (common/status.h,
// StatusExitCode: 3..13) for every failure that carries a Status — so a
// wrapping script can tell a corrupt checkpoint (data loss) from a
// mismatched one (failed precondition) without parsing stderr. All errors
// go to stderr; stdout carries only the design.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>

#include "calibration/calibrator.h"
#include "common/format.h"
#include "common/metrics.h"
#include "common/parse.h"
#include "common/trace.h"
#include "core/advisor.h"
#include "core/serialize.h"
#include "cost/calibrated_cost_model.h"
#include "cost/cost_model.h"
#include "hierarchy/hierarchical_advisor.h"
#include "cost/analytical_model.h"
#include "data/csv_loader.h"
#include "data/fact_generator.h"
#include "data/size_estimation.h"
#include "workload/query_log.h"

namespace {

using namespace olapidx;

[[noreturn]] void Usage(const char* message) {
  if (message != nullptr) std::fprintf(stderr, "error: %s\n", message);
  std::fprintf(
      stderr,
      "usage: advisor_cli --dims name:card[,name:card...] --budget ROWS\n"
      "       [--rows N | --sizes FILE] [--workload FILE]\n"
      "       [--hierarchy name:c1/c2[,name:c1...] --rows N]\n"
      "       [--algorithm inner|1greedy|2greedy|3greedy|twostep|"
      "viewsonly|optimal]\n"
      "       [--index-fraction F] [--maintenance RATE] "
      "[--raw-penalty P] [--threads N] [--out FILE]\n"
      "       [--deadline-ms MS] [--max-stages N] [--checkpoint FILE] "
      "[--resume FILE]\n"
      "       [--metrics-json FILE] [--trace-json FILE]\n"
      "       [--sparse] [--top-queries N] [--query-mass F] "
      "[--max-views N] [--beam B]\n"
      "       [--zipf-queries N] [--zipf-skew S] [--zipf-seed SEED]\n"
      "       [--cost-model paper|calibrated:FILE] [--replay FILE]\n");
  std::exit(2);
}

// A numeric flag's value, parsed strictly: a malformed number is a usage
// error (exit 2), never a silent 0 or a truncated prefix.
long LongFlag(const std::string& flag, const std::string& text) {
  long value = 0;
  if (!ParseLongStrict(text, &value)) {
    Usage((flag + " wants an integer, got '" + text + "'").c_str());
  }
  return value;
}

double DoubleFlag(const std::string& flag, const std::string& text) {
  double value = 0.0;
  if (!ParseDoubleStrict(text, &value)) {
    Usage((flag + " wants a number, got '" + text + "'").c_str());
  }
  return value;
}

// A positive cardinality from --dims or --hierarchy.
uint64_t Cardinality(const std::string& flag, const std::string& text) {
  long card = 0;
  if (!ParseLongStrict(text, &card) || card <= 0) {
    Usage(("bad cardinality in " + flag).c_str());
  }
  return static_cast<uint64_t>(card);
}

void WriteFileOrDie(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  if (!out || !(out << text) || !out.flush()) {
    std::fprintf(stderr, "error: cannot write '%s'\n", path.c_str());
    std::exit(2);
  }
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot read '%s'\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// --hierarchy mode: parse "name:c1/c2[,name:c1...]" (per-level
// cardinalities finest→coarsest), build the hierarchical advisor over
// analytical sizes, run the shared AdvisorConfig, and print the design as
// level vectors + index dimension orders.
int RunHierarchy(const std::string& hierarchy_arg, double rows,
                 double budget, const AdvisorConfig& config,
                 double raw_penalty, double maintenance, long threads,
                 std::shared_ptr<const CostModel> cost_model,
                 const std::string& metrics_json_path,
                 const std::string& trace_json_path, bool sparse,
                 long top_queries, double query_mass, long max_views,
                 long zipf_queries, double zipf_skew, long zipf_seed) {
  std::vector<HierarchicalDimension> dims;
  std::istringstream in(hierarchy_arg);
  std::string item;
  while (std::getline(in, item, ',')) {
    size_t colon = item.find(':');
    if (colon == std::string::npos || colon == 0) {
      Usage("bad --hierarchy entry (want name:card[/card...])");
    }
    HierarchicalDimension dim;
    dim.name = item.substr(0, colon);
    std::istringstream levels(item.substr(colon + 1));
    std::string card_text;
    uint64_t previous = 0;
    while (std::getline(levels, card_text, '/')) {
      const uint64_t card = Cardinality("--hierarchy", card_text);
      if (previous != 0 && card > previous) {
        Usage("--hierarchy level cardinalities must not increase "
              "(list them finest to coarsest)");
      }
      previous = card;
      // The finest level carries the dimension's name (as in the flat
      // model); coarser roll-up levels get derived names.
      dim.levels.push_back(HierarchyLevel{
          dim.levels.empty()
              ? dim.name
              : dim.name + "_l" + std::to_string(dim.levels.size()),
          card});
    }
    if (dim.levels.empty()) Usage("bad --hierarchy entry (no levels)");
    dims.push_back(std::move(dim));
  }
  if (dims.empty()) Usage("bad --hierarchy (no dimensions)");
  if (rows < 1.0) Usage("--hierarchy requires --rows");
  HierarchicalSchema schema(std::move(dims));

  if (!sparse && (top_queries > 0 || query_mass < 1.0 || max_views > 0)) {
    Usage("--top-queries/--query-mass/--max-views require --sparse");
  }
  if (!trace_json_path.empty()) Tracer::Global().SetEnabled(true);

  // Workload: all hierarchical slice queries, or a sampled Zipf workload.
  // The full enumeration is Π_d (1 + 2·levels_d) queries — guard against
  // schemas where that is infeasible.
  double population = 1.0;
  for (int d = 0; d < schema.num_dimensions(); ++d) {
    population *= 1.0 + 2.0 * schema.num_levels(d);
  }
  const std::string cost_model_name =
      cost_model != nullptr ? cost_model->name() : "";
  std::vector<WeightedHQuery> workload;
  if (zipf_queries > 0) {
    if (static_cast<double>(zipf_queries) > population) {
      Usage("--zipf-queries exceeds the schema's query population");
    }
    workload = SampledZipfHWorkload(schema,
                                    static_cast<size_t>(zipf_queries),
                                    zipf_skew,
                                    static_cast<uint64_t>(zipf_seed));
  } else if (population > 1e6) {
    Usage("enumerating all hierarchical slice queries is infeasible for "
          "this schema; provide --zipf-queries N");
  } else {
    workload = UniformHWorkload(schema);
  }

  HierarchicalGraphOptions gopts;
  gopts.raw_scan_penalty = raw_penalty;
  gopts.maintenance_per_row = maintenance;
  gopts.num_threads = static_cast<size_t>(threads);
  gopts.cost_model = std::move(cost_model);
  if (sparse) {
    PruningOptions& pruning = gopts.pruning.emplace();
    pruning.top_queries = static_cast<size_t>(top_queries);
    pruning.query_mass = query_mass;
    if (max_views > 0) pruning.max_views = static_cast<size_t>(max_views);
  }
  StatusOr<HierarchicalAdvisor> advisor_or =
      HierarchicalAdvisor::Create(schema, rows, workload, gopts);
  if (!advisor_or.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 advisor_or.status().ToString().c_str());
    return StatusExitCode(advisor_or.status());
  }
  const HierarchicalAdvisor& advisor = *advisor_or;
  if (const SparseBuildStats* ss = advisor.sparse_stats()) {
    if (ss->view_cap_hit) {
      std::fprintf(
          stderr,
          "warning: --max-views cap binds: %s%llu answering views "
          "dropped; raise --max-views to recover them\n",
          ss->views_dropped_truncated ? "at least " : "",
          static_cast<unsigned long long>(ss->views_dropped));
    }
  }
  HRecommendation rec = advisor.TryRecommend(config);
  if (!rec.status.ok() && !rec.status.IsInterruption()) {
    std::fprintf(stderr, "error: %s\n", rec.status.ToString().c_str());
    return StatusExitCode(rec.status);
  }

  std::printf("algorithm: %s (hierarchical lattice)\n",
              AlgorithmName(config.algorithm));
  if (!cost_model_name.empty()) {
    std::printf("cost model: %s\n", cost_model_name.c_str());
  }
  if (!rec.completed) {
    std::printf("note: selection interrupted (%s) after %llu stage(s); "
                "the design below is the valid best-so-far prefix\n",
                rec.status.ToString().c_str(),
                static_cast<unsigned long long>(rec.raw.stats.stages));
  }
  std::printf("views: %u   queries: %zu   structures considered: %u\n",
              advisor.cube_graph().graph.num_views(), workload.size(),
              advisor.cube_graph().graph.num_structures());
  if (const SparseBuildStats* ss = advisor.sparse_stats()) {
    std::printf(
        "sparse graph: %zu/%zu queries retained (%.1f%% of mass), "
        "%zu views (%zu with candidate index families, cap %s)\n",
        ss->retained_queries, ss->workload_queries,
        ss->total_mass > 0.0 ? 100.0 * ss->retained_mass / ss->total_mass
                             : 100.0,
        ss->retained_views, ss->candidate_views,
        ss->view_cap_hit ? "hit" : "not hit");
    std::printf("sparse graph peak memory: %.1f MiB (edge runs + cost "
                "table)\n",
                static_cast<double>(ss->build.peak_bytes) /
                    (1024.0 * 1024.0));
  }
  std::printf("space: %s of %s budget\n",
              FormatRowCount(rec.space_used).c_str(),
              FormatRowCount(budget).c_str());
  std::printf("average query cost: %s -> %s rows\n",
              FormatRowCount(rec.initial_average_cost).c_str(),
              FormatRowCount(rec.average_query_cost).c_str());
  if (rec.raw.total_maintenance > 0.0) {
    std::printf("maintenance charged: %s\n",
                FormatRowCount(rec.raw.total_maintenance).c_str());
  }
  std::printf("evaluation: %s\n", rec.raw.stats.ToString().c_str());
  std::printf("\ndesign (%zu structures):\n", rec.structures.size());
  for (const HRecommendedStructure& s : rec.structures) {
    std::printf("  %-60s %s rows\n", s.name.c_str(),
                FormatRowCount(s.space).c_str());
  }

  if (!metrics_json_path.empty()) {
    WriteFileOrDie(metrics_json_path, rec.raw.metrics.ToJson() + "\n");
    std::printf("\nwrote %s\n", metrics_json_path.c_str());
  }
  if (!trace_json_path.empty()) {
    WriteFileOrDie(trace_json_path, Tracer::Global().ToJson() + "\n");
    std::printf("wrote %s\n", trace_json_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string dims_arg, hierarchy_arg;
  std::string sizes_path, workload_path, out_path, csv_path;
  std::string dump_sizes_path, checkpoint_path, resume_path;
  std::string metrics_json_path, trace_json_path;
  std::string algorithm = "inner";
  double rows = 0.0, budget = 0.0, index_fraction = 0.5;
  double maintenance = 0.0, raw_penalty = 2.0;
  long threads = 0;  // 0 = shared pool sized from the hardware
  long deadline_ms = 0;  // 0 = no deadline
  long max_stages = 0;   // 0 = no stage budget
  bool sparse = false;
  long top_queries = 0;    // 0 = no cap
  double query_mass = 1.0;
  long max_views = 0;      // 0 = the sparse builder's default cap
  long beam = 0;           // 0 = exact greedy
  long zipf_queries = 0;   // 0 = no sampled workload
  double zipf_skew = 1.0;
  long zipf_seed = 42;
  std::string cost_model_arg = "paper";
  std::string replay_path;

  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    // Accept the "--flag=value" spelling too (used by scripted callers).
    std::string inline_value;
    size_t eq = flag.find('=');
    if (flag.rfind("--", 0) == 0 && eq != std::string::npos) {
      inline_value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
      if (inline_value.empty()) {
        Usage(("missing value for " + flag).c_str());
      }
    }
    auto next = [&]() -> std::string {
      if (!inline_value.empty()) return inline_value;
      if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--dims") {
      dims_arg = next();
    } else if (flag == "--hierarchy") {
      hierarchy_arg = next();
    } else if (flag == "--csv") {
      csv_path = next();
    } else if (flag == "--rows") {
      rows = DoubleFlag(flag, next());
    } else if (flag == "--sizes") {
      sizes_path = next();
    } else if (flag == "--workload") {
      workload_path = next();
    } else if (flag == "--budget") {
      budget = DoubleFlag(flag, next());
    } else if (flag == "--algorithm") {
      algorithm = next();
    } else if (flag == "--index-fraction") {
      index_fraction = DoubleFlag(flag, next());
    } else if (flag == "--maintenance") {
      maintenance = DoubleFlag(flag, next());
    } else if (flag == "--raw-penalty") {
      raw_penalty = DoubleFlag(flag, next());
    } else if (flag == "--threads") {
      threads = LongFlag(flag, next());
      if (threads < 0) Usage("--threads must be >= 0");
    } else if (flag == "--out") {
      out_path = next();
    } else if (flag == "--dump-sizes") {
      dump_sizes_path = next();
    } else if (flag == "--deadline-ms") {
      deadline_ms = LongFlag(flag, next());
      if (deadline_ms <= 0) Usage("--deadline-ms must be positive");
    } else if (flag == "--max-stages") {
      max_stages = LongFlag(flag, next());
      if (max_stages <= 0) Usage("--max-stages must be positive");
    } else if (flag == "--checkpoint") {
      checkpoint_path = next();
    } else if (flag == "--resume") {
      resume_path = next();
    } else if (flag == "--metrics-json") {
      metrics_json_path = next();
    } else if (flag == "--trace-json") {
      trace_json_path = next();
    } else if (flag == "--sparse") {
      sparse = true;
    } else if (flag == "--top-queries") {
      top_queries = LongFlag(flag, next());
      if (top_queries <= 0) Usage("--top-queries must be positive");
    } else if (flag == "--query-mass") {
      query_mass = DoubleFlag(flag, next());
      if (!(query_mass > 0.0) || query_mass > 1.0) {
        Usage("--query-mass must be in (0, 1]");
      }
    } else if (flag == "--max-views") {
      max_views = LongFlag(flag, next());
      if (max_views <= 0) Usage("--max-views must be positive");
    } else if (flag == "--beam") {
      beam = LongFlag(flag, next());
      if (beam < 0) Usage("--beam must be >= 0");
    } else if (flag == "--zipf-queries") {
      zipf_queries = LongFlag(flag, next());
      if (zipf_queries <= 0) Usage("--zipf-queries must be positive");
    } else if (flag == "--zipf-skew") {
      zipf_skew = DoubleFlag(flag, next());
      if (!(zipf_skew >= 0.0)) Usage("--zipf-skew must be >= 0");
    } else if (flag == "--zipf-seed") {
      zipf_seed = LongFlag(flag, next());
    } else if (flag == "--cost-model") {
      cost_model_arg = next();
    } else if (flag == "--replay") {
      replay_path = next();
    } else if (flag == "--help" || flag == "-h") {
      Usage(nullptr);
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (dims_arg.empty() && csv_path.empty() && hierarchy_arg.empty()) {
    Usage("--dims, --csv, or --hierarchy is required");
  }
  if (!std::isfinite(budget) || budget <= 0.0) {
    Usage("--budget is required and must be a finite positive number");
  }

  // Algorithm and run control are shared by the flat and hierarchical
  // paths; neither depends on the schema.
  AdvisorConfig config;
  config.space_budget = budget;
  if (algorithm == "inner") {
    config.algorithm = Algorithm::kInnerLevel;
  } else if (algorithm == "1greedy") {
    config.algorithm = Algorithm::kOneGreedy;
  } else if (algorithm == "2greedy" || algorithm == "3greedy") {
    config.algorithm = Algorithm::kRGreedy;
    config.r_greedy.r = algorithm[0] - '0';
    config.r_greedy.max_subsets_per_view = 200'000;
  } else if (algorithm == "twostep") {
    config.algorithm = Algorithm::kTwoStep;
    config.two_step.index_fraction = index_fraction;
    config.two_step.strict_fit = true;
  } else if (algorithm == "viewsonly") {
    config.algorithm = Algorithm::kHruViewsOnly;
  } else if (algorithm == "optimal") {
    config.algorithm = Algorithm::kOptimal;
  } else {
    Usage("unknown --algorithm");
  }
  config.r_greedy.num_threads = static_cast<size_t>(threads);
  config.inner_greedy.num_threads = static_cast<size_t>(threads);
  config.r_greedy.beam_width = static_cast<size_t>(beam);
  config.inner_greedy.beam_width = static_cast<size_t>(beam);
  if (deadline_ms > 0) {
    config.control.deadline =
        Deadline::AfterMillis(static_cast<int64_t>(deadline_ms));
  }
  if (max_stages > 0) {
    config.control.max_steps = static_cast<size_t>(max_stages);
  }

  // The cost model behind the graph builders' CostModel seam: the paper's
  // linear model (null, the builders' default) or a calibrated model
  // loaded from an "olapidx-costmodel v2" file.
  std::shared_ptr<const CostModel> cost_model;
  if (cost_model_arg != "paper") {
    const std::string prefix = "calibrated:";
    if (cost_model_arg.rfind(prefix, 0) != 0 ||
        cost_model_arg.size() == prefix.size()) {
      Usage("--cost-model must be 'paper' or 'calibrated:FILE'");
    }
    const std::string model_path = cost_model_arg.substr(prefix.size());
    StatusOr<CalibratedCostModel> loaded =
        CalibratedCostModel::Load(model_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error in %s: %s\n", model_path.c_str(),
                   loaded.status().ToString().c_str());
      return StatusExitCode(loaded.status());
    }
    cost_model =
        std::make_shared<CalibratedCostModel>(std::move(loaded).value());
  }

  if (!hierarchy_arg.empty()) {
    if (!dims_arg.empty() || !csv_path.empty() || !sizes_path.empty() ||
        !workload_path.empty() || !out_path.empty() ||
        !dump_sizes_path.empty() || !checkpoint_path.empty() ||
        !resume_path.empty() || !replay_path.empty()) {
      Usage("--hierarchy is incompatible with the flat-cube inputs "
            "(--dims/--csv/--sizes/--workload/--out/--dump-sizes/"
            "--checkpoint/--resume/--replay)");
    }
    return RunHierarchy(hierarchy_arg, rows, budget, config, raw_penalty,
                        maintenance, threads, std::move(cost_model),
                        metrics_json_path, trace_json_path, sparse,
                        top_queries, query_mass, max_views, zipf_queries,
                        zipf_skew, zipf_seed);
  }

  // Schema and sizes: from the CSV data, or from --dims plus --rows/--sizes.
  std::optional<CsvCube> csv;
  std::unique_ptr<CubeSchema> schema_holder;
  if (!csv_path.empty()) {
    StatusOr<CsvCube> loaded = LoadCsvFacts(ReadFileOrDie(csv_path));
    if (!loaded.ok()) {
      std::fprintf(stderr, "error in %s: %s\n", csv_path.c_str(),
                   loaded.status().ToString().c_str());
      return StatusExitCode(loaded.status());
    }
    csv.emplace(std::move(loaded).value());
    schema_holder = std::make_unique<CubeSchema>(csv->schema);
  } else {
    std::vector<Dimension> dims;
    std::istringstream in(dims_arg);
    std::string item;
    while (std::getline(in, item, ',')) {
      size_t colon = item.find(':');
      if (colon == std::string::npos || colon == 0) {
        Usage("bad --dims entry (want name:cardinality)");
      }
      const uint64_t card = Cardinality("--dims", item.substr(colon + 1));
      dims.push_back(Dimension{item.substr(0, colon), card});
    }
    schema_holder = std::make_unique<CubeSchema>(dims);
  }
  CubeSchema& schema = *schema_holder;

  ViewSizes sizes;
  if (csv.has_value()) {
    sizes = csv->fact.num_rows() <= 200'000
                ? ExactViewSizes(csv->fact)
                : EstimateViewSizesHll(csv->fact);
  } else if (!sizes_path.empty()) {
    StatusOr<ViewSizes> parsed =
        ParseViewSizes(ReadFileOrDie(sizes_path), schema);
    if (!parsed.ok()) {
      std::fprintf(stderr, "error in %s: %s\n", sizes_path.c_str(),
                   parsed.status().ToString().c_str());
      return StatusExitCode(parsed.status());
    }
    sizes = std::move(parsed).value();
  } else if (rows >= 1.0) {
    sizes = AnalyticalViewSizes(schema, rows);
  } else {
    Usage("provide --rows, --sizes, or --csv");
  }

  // Workload.
  CubeLattice lattice(schema);
  Workload workload;
  if (!workload_path.empty()) {
    std::string error;
    if (!ParseQueryLog(ReadFileOrDie(workload_path), schema, &workload,
                       &error)) {
      std::fprintf(stderr, "error in %s: %s\n", workload_path.c_str(),
                   error.c_str());
      return 2;
    }
    if (workload.empty()) {
      std::fprintf(stderr, "error: workload file has no queries\n");
      return 2;
    }
  } else if (zipf_queries > 0) {
    workload = SampledZipfSliceQueries(lattice, zipf_skew,
                                       static_cast<size_t>(zipf_queries),
                                       static_cast<uint64_t>(zipf_seed));
  } else if (schema.num_dimensions() > 10) {
    Usage("enumerating all 3^n slice queries is infeasible beyond 10 "
          "dimensions; provide --workload FILE or --zipf-queries N");
  } else {
    workload = AllSliceQueries(lattice);
  }

  SelectionCheckpoint resume_checkpoint;
  if (!resume_path.empty()) {
    StatusOr<SelectionCheckpoint> parsed =
        ParseCheckpoint(ReadFileOrDie(resume_path), schema);
    if (!parsed.ok()) {
      std::fprintf(stderr, "error in %s: %s\n", resume_path.c_str(),
                   parsed.status().ToString().c_str());
      return StatusExitCode(parsed.status());
    }
    resume_checkpoint = std::move(parsed).value();
    config.resume = &resume_checkpoint;
  }

  // The tracer is off by default (its only cost is then one relaxed
  // atomic load per span site); --trace-json opts this run in.
  if (!trace_json_path.empty()) Tracer::Global().SetEnabled(true);
  StatusOr<Advisor> advisor_or = [&]() -> StatusOr<Advisor> {
    if (sparse) {
      SparseCubeGraphOptions sopts;
      sopts.top_queries = static_cast<size_t>(top_queries);
      sopts.query_mass = query_mass;
      if (max_views > 0) sopts.max_views = static_cast<size_t>(max_views);
      sopts.raw_scan_penalty = raw_penalty;
      sopts.maintenance_per_row = maintenance;
      sopts.num_threads = static_cast<size_t>(threads);
      sopts.cost_model = cost_model;
      return Advisor::CreateSparse(schema, sizes, workload, sopts);
    }
    if (top_queries > 0 || query_mass < 1.0 || max_views > 0) {
      Usage("--top-queries/--query-mass/--max-views require --sparse");
    }
    CubeGraphOptions gopts;
    gopts.raw_scan_penalty = raw_penalty;
    gopts.maintenance_per_row = maintenance;
    gopts.num_threads = static_cast<size_t>(threads);
    gopts.cost_model = cost_model;
    return Advisor::Create(schema, sizes, workload, gopts);
  }();
  if (!advisor_or.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 advisor_or.status().ToString().c_str());
    return StatusExitCode(advisor_or.status());
  }
  const Advisor& advisor = *advisor_or;
  if (const SparseBuildStats* ss = advisor.sparse_stats()) {
    if (ss->view_cap_hit) {
      std::fprintf(
          stderr,
          "warning: --max-views cap binds: %s%llu answering views "
          "dropped; raise --max-views to recover them\n",
          ss->views_dropped_truncated ? "at least " : "",
          static_cast<unsigned long long>(ss->views_dropped));
    }
  }
  Recommendation rec = advisor.Recommend(config);

  if (!rec.status.ok() && !rec.status.IsInterruption()) {
    std::fprintf(stderr, "error: %s\n", rec.status.ToString().c_str());
    return StatusExitCode(rec.status);
  }

  std::printf("algorithm: %s\n", AlgorithmName(config.algorithm));
  if (cost_model != nullptr) {
    std::printf("cost model: %s\n", cost_model->name());
  }
  if (!rec.completed) {
    std::printf("note: selection interrupted (%s) after %llu stage(s); "
                "the design below is the valid best-so-far prefix\n",
                rec.status.ToString().c_str(),
                static_cast<unsigned long long>(rec.raw.stats.stages));
  }
  std::printf("queries: %zu   structures considered: %u\n",
              workload.size(),
              advisor.cube_graph().graph.num_structures());
  if (const SparseBuildStats* ss = advisor.sparse_stats()) {
    std::printf(
        "sparse graph: %zu/%zu queries retained (%.1f%% of mass), "
        "%zu views (%zu with candidate index families, cap %s)\n",
        ss->retained_queries, ss->workload_queries,
        ss->total_mass > 0.0 ? 100.0 * ss->retained_mass / ss->total_mass
                             : 100.0,
        ss->retained_views, ss->candidate_views,
        ss->view_cap_hit ? "hit" : "not hit");
    std::printf("sparse graph peak memory: %.1f MiB (edge runs + cost "
                "table)\n",
                static_cast<double>(ss->build.peak_bytes) / (1024.0 * 1024.0));
  }
  std::printf("space: %s of %s budget\n",
              FormatRowCount(rec.space_used).c_str(),
              FormatRowCount(budget).c_str());
  if (rec.space_used > 1.05 * budget) {
    std::printf("note: greedy stages may overshoot the budget (the "
                "paper's Theorem 5.1/5.2 semantics);\n      rerun with a "
                "smaller budget for a strict fit.\n");
  }
  std::printf("average query cost: %s -> %s rows\n",
              FormatRowCount(rec.initial_average_cost).c_str(),
              FormatRowCount(rec.average_query_cost).c_str());
  if (rec.raw.total_maintenance > 0.0) {
    std::printf("maintenance charged: %s\n",
                FormatRowCount(rec.raw.total_maintenance).c_str());
  }
  std::printf("evaluation: %s\n", rec.raw.stats.ToString().c_str());
  if (beam > 0) {
    std::printf("beam: width %ld, %llu re-evaluations skipped, per-stage "
                "guarantee factor %.4f\n",
                beam,
                static_cast<unsigned long long>(rec.raw.beam_skipped),
                rec.raw.beam_stage_factor);
  }
  if (rec.raw.candidates_truncated > 0) {
    std::printf("note: subset enumeration was capped; %llu candidate "
                "subsets were skipped\n",
                static_cast<unsigned long long>(
                    rec.raw.candidates_truncated));
  }
  std::printf("\n%s", SerializeDesign(rec.structures, schema).c_str());

  if (!replay_path.empty()) {
    Workload replay_workload;
    std::string error;
    if (!ParseQueryLog(ReadFileOrDie(replay_path), schema, &replay_workload,
                       &error)) {
      std::fprintf(stderr, "error in %s: %s\n", replay_path.c_str(),
                   error.c_str());
      return 2;
    }
    if (replay_workload.empty()) {
      std::fprintf(stderr, "error: replay file has no queries\n");
      return 2;
    }
    // The measured side needs real rows: the CSV facts when given, else
    // synthetic Zipf facts at the advertised row count (capped so a
    // warehouse-scale --rows doesn't stall the CLI).
    std::optional<FactTable> synthetic;
    const FactTable* fact = nullptr;
    if (csv.has_value()) {
      fact = &csv->fact;
    } else {
      if (rows < 1.0) Usage("--replay without --csv requires --rows");
      const size_t replay_rows =
          static_cast<size_t>(std::min(rows, 250'000.0));
      synthetic.emplace(GenerateZipfFacts(schema, replay_rows, zipf_skew,
                                          static_cast<uint64_t>(zipf_seed)));
      fact = &*synthetic;
    }
    StatusOr<BatchReplayResult> measured = ReplayDesignBatched(
        *fact, rec.structures, replay_workload, /*batch_size=*/256,
        /*num_threads=*/threads > 0 ? static_cast<size_t>(threads) : 1);
    if (!measured.ok()) {
      std::fprintf(stderr, "error replaying %s: %s\n", replay_path.c_str(),
                   measured.status().ToString().c_str());
      return StatusExitCode(measured.status());
    }
    // Model-predicted cost of the same workload against the same design,
    // under whichever model drove selection.
    const CostModel& model = cost_model != nullptr
                                 ? *cost_model
                                 : PaperCostModel::Instance();
    DesignCost predicted = DesignCostUnderModel(
        schema, sizes, replay_workload, rec.structures, model, raw_penalty);
    const BatchReplayResult& m = *measured;
    const double wall_ms = static_cast<double>(m.wall_ns) / 1e6;
    const double qps = wall_ms > 0.0
                           ? 1e3 * static_cast<double>(m.requests) / wall_ms
                           : 0.0;
    std::printf("\nreplay of %s (%zu distinct queries) on %zu fact rows, "
                "batched serving path:\n",
                replay_path.c_str(), replay_workload.size(),
                fact->num_rows());
    std::printf("  requests: %llu in %llu batch(es), %llu unique after "
                "coalescing\n",
                static_cast<unsigned long long>(m.requests),
                static_cast<unsigned long long>(m.batches),
                static_cast<unsigned long long>(m.unique_requests));
    std::printf("  model cost:    %s rows/query average (%s total)\n",
                FormatRowCount(predicted.average).c_str(),
                FormatRowCount(predicted.total).c_str());
    std::printf("  measured:      %s rows/query serial-equivalent; "
                "%s physical rows decoded (%.1fx shared)\n",
                FormatRowCount(
                    static_cast<double>(m.logical_rows) /
                    static_cast<double>(std::max<uint64_t>(1, m.requests)))
                    .c_str(),
                FormatRowCount(static_cast<double>(m.rows_decoded)).c_str(),
                static_cast<double>(m.logical_rows) /
                    std::max(1.0, static_cast<double>(m.rows_decoded)));
    std::printf("  throughput:    %.0f queries/s (%.1f ms wall)\n", qps,
                wall_ms);
  }

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write '%s'\n", out_path.c_str());
      return 2;
    }
    out << SerializeDesign(rec.structures, schema);
    std::printf("\nwrote %s\n", out_path.c_str());
  }
  if (!checkpoint_path.empty()) {
    if (rec.completed) {
      std::printf("\nrun completed; no checkpoint needed (not writing "
                  "%s)\n",
                  checkpoint_path.c_str());
    } else {
      std::ofstream out(checkpoint_path);
      if (!out) {
        std::fprintf(stderr, "error: cannot write '%s'\n",
                     checkpoint_path.c_str());
        return 2;
      }
      out << SerializeCheckpoint(rec.ToCheckpoint(config), schema);
      std::printf("\nwrote %s (continue with --resume)\n",
                  checkpoint_path.c_str());
    }
  }
  if (!dump_sizes_path.empty()) {
    std::ofstream out(dump_sizes_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   dump_sizes_path.c_str());
      return 2;
    }
    out << SerializeViewSizes(sizes, schema);
    std::printf("wrote %s (reusable via --sizes)\n",
                dump_sizes_path.c_str());
  }
  if (!metrics_json_path.empty()) {
    // The per-run delta captured on the SelectionResult, not the global
    // registry: repeated runs in one process would otherwise accumulate.
    WriteFileOrDie(metrics_json_path, rec.raw.metrics.ToJson() + "\n");
    std::printf("wrote %s\n", metrics_json_path.c_str());
  }
  if (!trace_json_path.empty()) {
    WriteFileOrDie(trace_json_path, Tracer::Global().ToJson() + "\n");
    std::printf("wrote %s\n", trace_json_path.c_str());
  }
  return 0;
}
