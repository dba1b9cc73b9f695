// advisor_serve: the resident advisor as a command-driven process.
//
//   advisor_serve --dims p:200000,s:10000,c:100000 --rows 6000000
//                 --budget 25000000
//                 [--algorithm inner|1greedy|2greedy|viewsonly]
//                 [--workload log.txt] [--journal state.journal]
//                 [--drift-threshold F] [--deadline-ms MS]
//                 [--script FILE]
//
// Commands are read from --script FILE or stdin, one per line ('#' starts
// a comment, blank lines are ignored):
//
//   observe <group> ; <sel> [; count]   record an executed query
//                                       (query-log line, workload/query_log.h)
//   whatif [budget ...]                 budget sweep vs the served design
//   epoch                               close the observation epoch
//                                       (drift check, maybe re-select)
//   complete                            finish a pending re-selection
//   save                                journal the served state
//   snapshot                            print the served design
//   stats                               print the service counters
//   quit                                exit
//
// With --journal FILE the service restores from FILE when it exists —
// killing this process at any point and re-running the same command
// prefix resumes bit-identically (the crash-safety contract of
// service/advisor_service.h). Exit codes follow advisor_cli: 0 on
// success, 2 for usage errors, StatusExitCode values for Status failures.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/format.h"
#include "common/parse.h"
#include "cost/analytical_model.h"
#include "core/advisor.h"
#include "service/advisor_service.h"
#include "workload/query_log.h"

namespace {

using namespace olapidx;

[[noreturn]] void Usage(const char* message) {
  if (message != nullptr) std::fprintf(stderr, "error: %s\n", message);
  std::fprintf(
      stderr,
      "usage: advisor_serve --dims name:card[,name:card...] --rows N "
      "--budget ROWS\n"
      "       [--algorithm inner|1greedy|2greedy|viewsonly]\n"
      "       [--workload FILE] [--journal FILE]\n"
      "       [--drift-threshold F] [--deadline-ms MS] [--script FILE]\n");
  std::exit(2);
}

void PrintSnapshot(const ServedSnapshot& snap, const CubeSchema& schema) {
  (void)schema;
  std::printf("epoch %llu  generation %llu%s%s\n",
              static_cast<unsigned long long>(snap.epoch),
              static_cast<unsigned long long>(snap.generation),
              snap.degraded ? "  [degraded]" : "",
              snap.pending ? "  [pending]" : "");
  std::printf("space: %s   average query cost: %s rows\n",
              FormatRowCount(snap.recommendation.space_used).c_str(),
              FormatRowCount(snap.recommendation.average_query_cost).c_str());
  std::printf("design (%zu structures):\n",
              snap.recommendation.structures.size());
  for (const RecommendedStructure& s : snap.recommendation.structures) {
    std::printf("  %-50s %s rows\n", s.name.c_str(),
                FormatRowCount(s.space).c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string dims_arg, workload_path, journal_path, script_path;
  std::string algorithm = "inner";
  double rows = 0.0, budget = 0.0;
  double drift_threshold = -1.0;  // <0 = library default
  long deadline_ms = 0;           // 0 = library default

  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    // Numbers parse strictly: a malformed one is a usage error (exit 2),
    // never a silent 0 or a truncated prefix.
    auto next_double = [&](double* out) {
      if (!ParseDoubleStrict(next(), out)) {
        Usage((flag + " wants a number, got '" + argv[i] + "'").c_str());
      }
    };
    if (flag == "--dims") {
      dims_arg = next();
    } else if (flag == "--rows") {
      next_double(&rows);
    } else if (flag == "--budget") {
      next_double(&budget);
    } else if (flag == "--algorithm") {
      algorithm = next();
    } else if (flag == "--workload") {
      workload_path = next();
    } else if (flag == "--journal") {
      journal_path = next();
    } else if (flag == "--drift-threshold") {
      next_double(&drift_threshold);
      if (!(drift_threshold >= 0.0)) {
        Usage("--drift-threshold must be >= 0");
      }
    } else if (flag == "--deadline-ms") {
      if (!ParseLongStrict(next(), &deadline_ms) || deadline_ms <= 0) {
        Usage("--deadline-ms must be a positive integer");
      }
    } else if (flag == "--script") {
      script_path = next();
    } else if (flag == "--help" || flag == "-h") {
      Usage(nullptr);
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (dims_arg.empty()) Usage("--dims is required");
  if (!std::isfinite(rows) || rows < 1.0) {
    Usage("--rows is required and must be a finite number >= 1");
  }
  if (!std::isfinite(budget) || budget <= 0.0) {
    Usage("--budget is required and must be a finite positive number");
  }

  std::vector<Dimension> dims;
  {
    std::istringstream in(dims_arg);
    std::string item;
    while (std::getline(in, item, ',')) {
      size_t colon = item.find(':');
      if (colon == std::string::npos || colon == 0) {
        Usage("bad --dims entry (want name:cardinality)");
      }
      long card = 0;
      if (!ParseLongStrict(item.substr(colon + 1), &card) || card <= 0) {
        Usage("bad cardinality in --dims");
      }
      dims.push_back(
          Dimension{item.substr(0, colon), static_cast<uint64_t>(card)});
    }
  }
  CubeSchema schema(dims);
  ViewSizes sizes = AnalyticalViewSizes(schema, rows);

  ServiceOptions options;
  options.base.space_budget = budget;
  if (algorithm == "inner") {
    options.base.algorithm = Algorithm::kInnerLevel;
  } else if (algorithm == "1greedy") {
    options.base.algorithm = Algorithm::kOneGreedy;
  } else if (algorithm == "2greedy") {
    options.base.algorithm = Algorithm::kRGreedy;
    options.base.r_greedy.r = 2;
    options.base.r_greedy.max_subsets_per_view = 200'000;
  } else if (algorithm == "viewsonly") {
    options.base.algorithm = Algorithm::kHruViewsOnly;
  } else {
    Usage("unknown --algorithm");
  }
  options.journal_path = journal_path;
  if (drift_threshold >= 0.0) options.drift_threshold = drift_threshold;
  if (deadline_ms > 0) options.default_deadline_ms = deadline_ms;

  Workload initial;
  if (!workload_path.empty()) {
    std::ifstream in(workload_path);
    if (!in) {
      std::fprintf(stderr, "error: cannot read '%s'\n",
                   workload_path.c_str());
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    std::string error;
    if (!ParseQueryLog(text.str(), schema, &initial, &error)) {
      std::fprintf(stderr, "error in %s: %s\n", workload_path.c_str(),
                   error.c_str());
      return 2;
    }
  } else {
    CubeLattice lattice(schema);
    initial = AllSliceQueries(lattice);
  }

  StatusOr<std::unique_ptr<AdvisorService>> service_or =
      AdvisorService::Create(schema, sizes, initial, options);
  if (!service_or.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 service_or.status().ToString().c_str());
    return StatusExitCode(service_or.status());
  }
  AdvisorService& service = **service_or;
  std::printf("serving (epoch %llu%s)\n",
              static_cast<unsigned long long>(service.epoch()),
              journal_path.empty() ? "" : ", journaled");

  std::ifstream script;
  if (!script_path.empty()) {
    script.open(script_path);
    if (!script) {
      std::fprintf(stderr, "error: cannot read '%s'\n",
                   script_path.c_str());
      return 2;
    }
  }
  std::istream& in = script_path.empty() ? std::cin : script;

  std::string line;
  while (std::getline(in, line)) {
    std::istringstream words(line);
    std::string command;
    if (!(words >> command) || command[0] == '#') continue;

    if (command == "quit" || command == "exit") {
      break;
    } else if (command == "observe") {
      std::string rest;
      std::getline(words, rest);
      Workload observed;
      std::string error;
      if (!ParseQueryLog(rest, schema, &observed, &error) ||
          observed.empty()) {
        std::printf("observe: bad query line (%s)\n", error.c_str());
        continue;
      }
      for (const WeightedQuery& wq : observed.queries()) {
        Status s = service.Observe(wq.query, wq.frequency);
        if (!s.ok()) std::printf("observe: dropped (%s)\n",
                                 s.ToString().c_str());
      }
    } else if (command == "whatif") {
      WhatIfRequest request;
      double b;
      while (words >> b) request.budgets.push_back(b);
      WhatIfResult result = service.WhatIf(request);
      std::printf("whatif [epoch %llu]: %s (%zu retries)\n",
                  static_cast<unsigned long long>(result.epoch),
                  result.status.ToString().c_str(), result.retries);
      for (const WhatIfPoint& p : result.points) {
        std::printf("  budget %-14s -> cost %-12s %zu structures "
                    "(+%zu/-%zu)%s\n",
                    FormatRowCount(p.budget).c_str(),
                    FormatRowCount(p.average_query_cost).c_str(),
                    p.num_structures, p.added.size(), p.removed.size(),
                    p.completed ? "" : "  [cut short]");
      }
    } else if (command == "epoch") {
      EpochResult result = service.AdvanceEpoch();
      std::printf("epoch %llu: drift %.4f%s%s%s%s -> %s\n",
                  static_cast<unsigned long long>(result.epoch),
                  result.drift,
                  result.drift_detected ? " [drift]" : "",
                  result.reselected ? " [reselected]" : "",
                  result.degraded ? " [degraded]" : "",
                  result.pending ? " [pending]" : "",
                  result.status.ToString().c_str());
    } else if (command == "complete") {
      Status s = service.CompletePendingReselection();
      std::printf("complete: %s\n", s.ToString().c_str());
    } else if (command == "save") {
      Status s = service.Save();
      std::printf("save: %s\n", s.ToString().c_str());
    } else if (command == "snapshot") {
      PrintSnapshot(service.Snapshot(), schema);
    } else if (command == "stats") {
      ServiceStats st = service.Stats();
      std::printf(
          "whatif ok/deadline/rejected/failed: %llu/%llu/%llu/%llu "
          "(%llu retries)\n"
          "observations: %llu (%llu dropped)\n"
          "epochs: %llu advanced, %llu failed; reselections: %llu "
          "(%llu degraded)\n",
          static_cast<unsigned long long>(st.whatif_ok),
          static_cast<unsigned long long>(st.whatif_deadline_exceeded),
          static_cast<unsigned long long>(st.whatif_rejected),
          static_cast<unsigned long long>(st.whatif_failed),
          static_cast<unsigned long long>(st.whatif_retries),
          static_cast<unsigned long long>(st.observations),
          static_cast<unsigned long long>(st.observations_dropped),
          static_cast<unsigned long long>(st.epochs_advanced),
          static_cast<unsigned long long>(st.epoch_failures),
          static_cast<unsigned long long>(st.reselections),
          static_cast<unsigned long long>(st.degraded_reselections));
    } else {
      std::printf("unknown command '%s' (observe/whatif/epoch/complete/"
                  "save/snapshot/stats/quit)\n",
                  command.c_str());
    }
  }
  return 0;
}
