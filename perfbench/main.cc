// perfbench: the repository's benchmark driver. One closed-loop client runs
// one workload against the library, checks the outputs, and prints a short
// report followed by one JSON line with every metric it measured (see
// README.md; perfbench/run.py builds this binary and selects the metrics).
//
//   perfbench --workload advise|serve-hot|serve-cold --seed N --seconds S
//             --trace 0|1 [--threads N] [--trace-out FILE]
//
// Exit status: 0 when every check passed, 1 when a check failed, 2 on a
// usage error.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Spans a traced run can hold (40 bytes each).
constexpr size_t kSpanCapacity = size_t{1} << 19;

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "advise|serve-hot|serve-cold --seed N --seconds S --trace 0|1 "
               "[--threads N] [--trace-out FILE]\n",
               message);
  return 2;
}

bool ParseUnsigned(const std::string& text, unsigned long long max,
                   unsigned long long* out) {
  if (text.empty() || text.size() > 19) return false;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
  }
  *out = std::strtoull(text.c_str(), nullptr, 10);
  return *out <= max;
}

void PrintMetrics(const std::map<std::string, Metric>& metrics) {
  std::printf("{");
  const char* sep = "";
  for (const auto& [name, metric] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                name.c_str(), metric.value, metric.unit.c_str());
    sep = ", ";
  }
  std::printf("}");
}

int Main(int argc, char** argv) {
  RunOptions options;
  std::string trace_out;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    unsigned long long n = 0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      if (!ParseUnsigned(value, ~0ull >> 1, &n)) return Usage("bad --seed");
      options.seed = n;
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseUnsigned(value, 600, &n) || n == 0) {
        return Usage("--seconds must be an integer in [1, 600]");
      }
      options.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace must be 0 or 1");
      options.trace = value == "1";
      have_trace = true;
    } else if (flag == "--threads") {
      if (!ParseUnsigned(value, 64, &n) || n == 0) {
        return Usage("--threads must be in [1, 64]");
      }
      options.threads = static_cast<size_t>(n);
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace are required");
  }

  SpanLog log(options.trace ? kSpanCapacity : 0);
  RunResult result;
  if (options.workload == "advise") {
    result = RunAdvise(options, log);
  } else if (options.workload == "serve-hot") {
    result = RunServeHot(options, log);
  } else if (options.workload == "serve-cold") {
    result = RunServeCold(options, log);
  } else {
    return Usage("unknown --workload");
  }
  if (options.trace && !trace_out.empty()) {
    result.Check(log.WriteJson(trace_out), "cannot write " + trace_out);
  }
  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", error.c_str());
  }
  if (log.dropped() > 0) {
    std::printf("spans dropped past capacity: %llu\n",
                static_cast<unsigned long long>(log.dropped()));
  }
  std::printf("digest %016llx\n",
              static_cast<unsigned long long>(result.digest));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"end_to_end\": ",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  PrintMetrics(result.end_to_end);
  std::printf(", \"per_layer\": ");
  PrintMetrics(result.per_layer);
  std::printf("}\n");
  return result.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
