// Machine-readable bench output: the "olapidx-bench" v1 JSON schema, a
// reporter every bench binary shares, and the --json flag parser.
//
// Every bench_* binary accepts
//     --json            write BENCH_<name>.json in the working directory
//     --json=FILE       write FILE
//     --json FILE       same, space-separated
// and emits a schema-versioned document:
//
//   {
//     "schema": "olapidx-bench",
//     "version": 1,
//     "bench": "<name>",
//     "runs": [ {"label": ..., "tau": ..., "space": ..., "stages": ...,
//                "wall_ms": ..., ...}, ... ],
//     "scalars": { "<headline metric>": <number>, ... },
//     "metrics": { <registry delta over the bench, metrics.h JSON form> }
//   }
//
// The reporter is header-only so the golden-file test (bench_json_test)
// can build documents without linking a bench binary — the ASan CI preset
// compiles tests with benchmarks off. Determinism: Build() output depends
// only on the rows added (plus wall-clock and registry fields, which
// BuildScrubbed() zeroes for golden comparisons).

#ifndef OLAPIDX_BENCH_BENCH_JSON_H_
#define OLAPIDX_BENCH_BENCH_JSON_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/metrics.h"
#include "common/parse.h"
#include "common/status.h"
#include "core/selection_result.h"

namespace olapidx::bench {

inline constexpr const char* kBenchJsonSchema = "olapidx-bench";
inline constexpr int kBenchJsonVersion = 1;

class BenchJsonReporter {
 public:
  explicit BenchJsonReporter(std::string bench_name)
      : name_(std::move(bench_name)),
        registry_before_(MetricsRegistry::Global().Snapshot()) {}

  const std::string& name() const { return name_; }

  // A fully custom row; must be an object with at least a "label" string.
  void AddRun(Json run) { runs_.push_back(std::move(run)); }

  // The standard row for one selection-algorithm run. `extra` appends
  // additional numeric fields (e.g. "graph_build_ms" alongside the
  // selection's own wall time) without changing the core schema.
  void AddSelectionRun(
      const std::string& label, const SelectionResult& r,
      const std::vector<std::pair<std::string, double>>& extra = {}) {
    Json run = Json::Object();
    run.Set("label", Json::Str(label));
    run.Set("tau", Json::Number(r.final_cost));
    run.Set("avg_query_cost", Json::Number(r.AverageQueryCost()));
    run.Set("benefit", Json::Number(r.Benefit()));
    run.Set("space", Json::Number(r.space_used));
    run.Set("stages", Json::Number(static_cast<double>(r.stats.stages)));
    run.Set("picks", Json::Number(static_cast<double>(r.picks.size())));
    run.Set("wall_ms",
            Json::Number(static_cast<double>(r.stats.total_wall_micros) /
                         1000.0));
    run.Set("candidates_evaluated",
            Json::Number(static_cast<double>(r.candidates_evaluated)));
    run.Set("cache_hits",
            Json::Number(static_cast<double>(r.stats.cache_hits)));
    run.Set("cache_misses",
            Json::Number(static_cast<double>(r.stats.cache_misses)));
    run.Set("bound_prunes",
            Json::Number(static_cast<double>(r.stats.bound_prunes)));
    run.Set("threads",
            Json::Number(static_cast<double>(r.stats.threads_used)));
    run.Set("completed", Json::Bool(r.completed));
    for (const auto& [name, value] : extra) {
      run.Set(name, Json::Number(value));
    }
    AddRun(std::move(run));
  }

  // Headline numbers outside any one run (e.g. "one_step_improvement").
  void AddScalar(const std::string& name, double value) {
    scalars_.emplace_back(name, value);
  }

  // The full document, including the volatile fields (wall clocks, the
  // metrics-registry delta since the reporter was constructed).
  Json Build() const {
    Json doc = BuildCommon();
    MetricsSnapshot delta = SnapshotDelta(
        registry_before_, MetricsRegistry::Global().Snapshot());
    StatusOr<Json> metrics = Json::Parse(delta.ToJson());
    doc.Set("metrics",
            metrics.ok() ? std::move(metrics.value()) : Json::Object());
    return doc;
  }

  // The document with every volatile field removed or zeroed — a pure
  // function of the benchmark's deterministic outputs, suitable for
  // byte-exact golden comparison: every wall-clock field and the thread
  // count → 0, and no "metrics" member.
  Json BuildScrubbed() const {
    Json doc = BuildCommon();
    Json scrubbed_runs = Json::Array();
    for (const Json& run : doc.Find("runs")->elements()) {
      Json r = run;
      if (r.is_object()) {
        for (const char* volatile_field :
             {"wall_ms", "wall_ms_q1", "wall_ms_q3", "threads",
              "graph_build_ms", "graph_build_ms_q1", "graph_build_ms_q3",
              "reference_ms", "reference_ms_q1", "reference_ms_q3",
              "selection_ms"}) {
          if (r.Find(volatile_field) != nullptr) {
            r.Set(volatile_field, Json::Number(0));
          }
        }
      }
      scrubbed_runs.Push(std::move(r));
    }
    doc.Set("runs", std::move(scrubbed_runs));
    return doc;
  }

  Status WriteFile(const std::string& path) const {
    std::string text = Build().Dump(2);
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
      return Status::Internal("cannot open '" + path + "' for writing");
    }
    size_t written = std::fwrite(text.data(), 1, text.size(), f);
    int closed = std::fclose(f);
    if (written != text.size() || closed != 0) {
      return Status::Internal("short write to '" + path + "'");
    }
    return Status::Ok();
  }

 private:
  Json BuildCommon() const {
    Json doc = Json::Object();
    doc.Set("schema", Json::Str(kBenchJsonSchema));
    doc.Set("version", Json::Number(kBenchJsonVersion));
    doc.Set("bench", Json::Str(name_));
    Json runs = Json::Array();
    for (const Json& run : runs_) runs.Push(run);
    doc.Set("runs", std::move(runs));
    Json scalars = Json::Object();
    for (const auto& [name, value] : scalars_) {
      scalars.Set(name, Json::Number(value));
    }
    doc.Set("scalars", std::move(scalars));
    return doc;
  }

  std::string name_;
  MetricsSnapshot registry_before_;
  std::vector<Json> runs_;
  std::vector<std::pair<std::string, double>> scalars_;
};

// Schema check used by the bench-smoke CI job and the golden test: does
// `doc` look like a valid "olapidx-bench" v1 document?
inline Status ValidateBenchJson(const Json& doc) {
  if (!doc.is_object()) return Status::InvalidArgument("not a JSON object");
  const Json* schema = doc.Find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->AsString() != kBenchJsonSchema) {
    return Status::InvalidArgument("missing or wrong \"schema\"");
  }
  const Json* version = doc.Find("version");
  if (version == nullptr || !version->is_number() ||
      version->AsDouble() != kBenchJsonVersion) {
    return Status::InvalidArgument("missing or unsupported \"version\"");
  }
  const Json* bench = doc.Find("bench");
  if (bench == nullptr || !bench->is_string() || bench->AsString().empty()) {
    return Status::InvalidArgument("missing \"bench\" name");
  }
  const Json* runs = doc.Find("runs");
  if (runs == nullptr || !runs->is_array()) {
    return Status::InvalidArgument("missing \"runs\" array");
  }
  for (size_t i = 0; i < runs->size(); ++i) {
    const Json& run = runs->at(i);
    auto fail = [&](const std::string& what) {
      return Status::InvalidArgument("runs[" + std::to_string(i) + "]: " +
                                     what);
    };
    if (!run.is_object()) return fail("not an object");
    const Json* label = run.Find("label");
    if (label == nullptr || !label->is_string()) {
      return fail("missing \"label\"");
    }
    for (const auto& [key, value] : run.members()) {
      if (key == "label") continue;
      if (!value.is_number() && !value.is_bool() && !value.is_string()) {
        return fail("member \"" + key + "\" is not a scalar");
      }
    }
  }
  const Json* scalars = doc.Find("scalars");
  if (scalars != nullptr && !scalars->is_object()) {
    return Status::InvalidArgument("\"scalars\" is not an object");
  }
  const Json* metrics = doc.Find("metrics");
  if (metrics != nullptr && !metrics->is_object()) {
    return Status::InvalidArgument("\"metrics\" is not an object");
  }
  return Status::Ok();
}

// Repeated wall-clock timings summarized by their median and quartiles
// (linear interpolation between order statistics). On a shared host a
// single build, or a best of three, cannot tell a 10-15% change from
// noise; the quartiles say how far apart two medians must be to count.
struct TimingSummary {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

inline TimingSummary SummarizeTimings(std::vector<double> ms) {
  TimingSummary out;
  if (ms.empty()) return out;
  std::sort(ms.begin(), ms.end());
  const auto at = [&ms](double p) {
    const double pos = p * static_cast<double>(ms.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    if (lo + 1 >= ms.size()) return ms[lo];
    return ms[lo] + (pos - static_cast<double>(lo)) * (ms[lo + 1] - ms[lo]);
  };
  out.q1 = at(0.25);
  out.median = at(0.5);
  out.q3 = at(0.75);
  return out;
}

// Times `reps` calls of fn (milliseconds each) and summarizes them.
template <typename Fn>
TimingSummary TimeRepeated(int reps, const Fn& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    ms.push_back(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count());
  }
  return SummarizeTimings(std::move(ms));
}

// --json flag parsing shared by every bench main(). Benches register
// their bench-specific value flags by name ("max-dim" accepts
// "--max-dim=7" and "--max-dim 7"); anything unregistered prints usage
// and exits(2) — no more hand-rolled argv peeling per bench. (Exception:
// bench_perf_scaling forwards the rest to google-benchmark.)
// Parsing is strict: a space-separated value may not itself start with
// "--" (so "--queries --json" is a missing value, not a value named
// "--json"), repeating a flag is an error rather than a silent
// first-one-wins, and GetInt/GetDouble reject non-numeric values through
// ParseLongStrict/ParseDoubleStrict (common/parse.h).

struct BenchArgs {
  bool json = false;
  std::string json_path;  // set iff json
  // Registered extra flags actually passed, as (name, raw value) in
  // command-line order.
  std::vector<std::pair<std::string, std::string>> extras;

  const std::string* Get(const std::string& name) const {
    for (const auto& [flag, value] : extras) {
      if (flag == name) return &value;
    }
    return nullptr;
  }
  // Both accessors parse strictly — a CI invocation with a typoed value
  // must fail loudly (exit 2), not run with a default.
  long GetInt(const std::string& name, long fallback) const {
    const std::string* raw = Get(name);
    if (raw == nullptr) return fallback;
    long value = 0;
    if (!ParseLongStrict(*raw, &value)) {
      std::fprintf(stderr, "error: --%s wants an integer, got '%s'\n",
                   name.c_str(), raw->c_str());
      std::exit(2);
    }
    return value;
  }
  double GetDouble(const std::string& name, double fallback) const {
    const std::string* raw = Get(name);
    if (raw == nullptr) return fallback;
    double value = 0.0;
    if (!ParseDoubleStrict(*raw, &value)) {
      std::fprintf(stderr, "error: --%s wants a number, got '%s'\n",
                   name.c_str(), raw->c_str());
      std::exit(2);
    }
    return value;
  }
};

// The exit-free parsing core (unit tested directly): `argv` excludes the
// program name. Returns false and sets *error on any malformed input —
// unknown flag, missing or flag-shaped value, empty "--flag=" value, or
// a repeated flag.
inline bool TryParseBenchArgs(const std::vector<std::string>& argv,
                              const std::string& bench_name,
                              const std::vector<std::string>& extra_flags,
                              BenchArgs* out, std::string* error) {
  *out = BenchArgs{};
  const std::string default_path = "BENCH_" + bench_name + ".json";
  for (size_t i = 0; i < argv.size(); ++i) {
    const std::string& arg = argv[i];
    if (arg == "--json" || arg.rfind("--json=", 0) == 0) {
      if (out->json) {
        *error = "duplicate --json";
        return false;
      }
      out->json = true;
      if (arg == "--json") {
        out->json_path = (i + 1 < argv.size() && argv[i + 1][0] != '-')
                             ? argv[++i]
                             : default_path;
      } else {
        out->json_path = arg.substr(7);
        if (out->json_path.empty()) out->json_path = default_path;
      }
      continue;
    }
    bool matched = false;
    for (const std::string& flag : extra_flags) {
      const std::string prefix = "--" + flag;
      const bool inline_value = arg.rfind(prefix + "=", 0) == 0;
      if (!inline_value && arg != prefix) continue;
      std::string value;
      if (inline_value) {
        value = arg.substr(prefix.size() + 1);
        if (value.empty()) {
          *error = "missing value for --" + flag;
          return false;
        }
      } else {
        // The next argv entry is the value; another flag there means the
        // value is missing, not that the value is "--whatever".
        if (i + 1 >= argv.size() || argv[i + 1].rfind("--", 0) == 0) {
          *error = "missing value for --" + flag;
          return false;
        }
        value = argv[++i];
      }
      if (out->Get(flag) != nullptr) {
        *error = "duplicate --" + flag;
        return false;
      }
      out->extras.emplace_back(flag, std::move(value));
      matched = true;
      break;
    }
    if (!matched) {
      *error = "unknown flag " + arg;
      return false;
    }
  }
  return true;
}

inline BenchArgs ParseBenchArgs(int argc, char** argv,
                                const std::string& bench_name,
                                const std::vector<std::string>& extra_flags =
                                    {}) {
  std::vector<std::string> args(argv + 1, argv + argc);
  BenchArgs out;
  std::string error;
  if (!TryParseBenchArgs(args, bench_name, extra_flags, &out, &error)) {
    std::string extras_text;
    for (const std::string& flag : extra_flags) {
      extras_text += " [--" + flag + "=V]";
    }
    std::fprintf(stderr, "error: %s\nusage: bench_%s [--json[=FILE]]%s\n",
                 error.c_str(), bench_name.c_str(), extras_text.c_str());
    std::exit(2);
  }
  return out;
}

// The value of a Status-returning build or Create whose input a bench
// expects to be well formed; otherwise prints the status and exits(1).
template <typename T>
T ValueOrExit(StatusOr<T> result) {
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
    std::exit(1);
  }
  return *std::move(result);
}

// Writes the report and prints a one-line confirmation (or the error).
inline void FinishBenchJson(const BenchJsonReporter& reporter,
                            const BenchArgs& args) {
  if (!args.json) return;
  Status written = reporter.WriteFile(args.json_path);
  if (written.ok()) {
    std::printf("\nwrote %s\n", args.json_path.c_str());
  } else {
    std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
    std::exit(1);
  }
}

}  // namespace olapidx::bench

#endif  // OLAPIDX_BENCH_BENCH_JSON_H_
