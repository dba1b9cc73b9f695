#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/journal.h"

namespace perfbench {

double PeakRssMib() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / kMiB;  // KiB
}

SpanLog::SpanLog(size_t capacity) : capacity_(capacity), origin_ns_(NowNs()) {
  spans_.reserve(capacity);
  open_.reserve(64);
}

uint32_t SpanLog::Begin(const char* name, uint64_t request) {
  if (!enabled_) return kNone;
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return kNone;
  }
  const uint32_t id = static_cast<uint32_t>(spans_.size());
  const uint32_t parent = open_.empty() ? kNone : open_.back();
  spans_.push_back(Span{name, NowNs(), 0, parent, request});
  open_.push_back(id);
  return id;
}

void SpanLog::End(uint32_t id) {
  if (id == kNone) return;
  spans_[id].end_ns = NowNs();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::map<std::string, double> SpanLog::SelfMs(int64_t since_ns) const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent != kNone) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.start_ns < since_ns) continue;
    self[s.name] += NsToMs(s.end_ns - s.start_ns - child_ns[i]);
  }
  return self;
}

bool SpanLog::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"dropped\": %llu, \"spans\": [\n",
               static_cast<unsigned long long>(dropped_));
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"parent\": %lld, \"name\": \"%s\", "
                 "\"request\": %llu, \"start_us\": %.3f, \"end_us\": %.3f}%s\n",
                 i, s.parent == kNone ? -1LL : static_cast<long long>(s.parent),
                 s.name, static_cast<unsigned long long>(s.request),
                 static_cast<double>(s.start_ns - origin_ns_) / 1e3,
                 static_cast<double>(s.end_ns - origin_ns_) / 1e3,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

void RunResult::Mix(uint64_t value) {
  digest = olapidx::Fnv1a64(&value, sizeof(value), digest);
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  const size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(mid),
                   samples.end());
  const double upper = samples[mid];
  if (samples.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(samples.begin(), samples.begin() + static_cast<long>(mid));
  return (lower + upper) / 2.0;
}

void ReportTimes(const std::string& name, const std::vector<double>& samples,
                 const char* unit) {
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  const double n = static_cast<double>(sorted.size());
  std::printf("%-28s p50 %.6g %s", name.c_str(), Median(samples), unit);
  // Highest percentile with at least ten samples beyond it (nearest rank).
  for (double p : {99.9, 99.0, 90.0}) {
    if (n * (1.0 - p / 100.0) < 10.0) continue;
    const size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
    std::printf(", p%g %.6g %s", p, sorted[rank - 1], unit);
    break;
  }
  std::printf(" (n=%zu)\n", sorted.size());
}

void ReportValue(const std::string& name, double value, const char* unit) {
  std::printf("%-28s %.6g %s\n", name.c_str(), value, unit);
}

void AddTraceMetrics(const SpanLog& log, int64_t phase_start_ns,
                     uint64_t traced_ops,
                     const std::vector<double>& traced_op_ms,
                     const std::vector<double>& untraced_op_ms,
                     RunResult* result) {
  static const char* const kLayers[] = {
      "core.graph_build", "core.selection", "service",       "engine.plan",
      "engine.executor",  "engine.batch",   "engine.refresh"};
  std::map<std::string, double> self_ms;
  for (const char* layer : kLayers) self_ms[layer] = 0.0;
  self_ms["bench"] = 0.0;
  for (const auto& [name, ms] : log.SelfMs(phase_start_ns)) {
    auto it = self_ms.find(name);
    (it == self_ms.end() ? self_ms["bench"] : it->second) += ms;
  }
  const double ops = static_cast<double>(std::max<uint64_t>(1, traced_ops));
  for (const auto& [layer, ms] : self_ms) {
    result->per_layer["self_us." + layer] = {ms * 1e3 / ops, "us"};
  }
  // Mean rather than median operation time: serve-cold's request times are
  // bimodal (index probes and scans), so its medians jump between modes.
  const auto mean = [](const std::vector<double>& ms) {
    double sum = 0.0;
    for (double v : ms) sum += v;
    return ms.empty() ? 0.0 : sum / static_cast<double>(ms.size());
  };
  const double untraced = mean(untraced_op_ms);
  result->per_layer["trace.overhead_frac"] = {
      untraced > 0.0 ? mean(traced_op_ms) / untraced - 1.0 : 0.0,
      "fraction"};
  result->per_layer["trace.spans"] = {static_cast<double>(log.recorded()),
                                      "spans"};
}

}  // namespace perfbench
