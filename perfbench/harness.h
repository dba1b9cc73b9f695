// Shared pieces of the benchmark driver: the record a workload run fills,
// the in-memory span log, the measured heap, and small statistics helpers.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

constexpr double kMiB = 1024.0 * 1024.0;

// ---- Measured heap (heap_counter.cc) ----
// Every global operator new/delete of the process, the library's included,
// goes through a counting allocator, so these are measurements rather than
// the library's allocation models. They are exact for the calling thread
// and within 64 KiB for every other live thread.
int64_t HeapLiveBytes();
// High-water mark of HeapLiveBytes() since the last ResetHeapPeak().
int64_t HeapPeakBytes();
void ResetHeapPeak();

// High-water resident set size of the process.
double PeakRssMib();

// ---- Spans ----
// Spans are recorded on the driver's single client thread only, around its
// calls into the library's public API; nothing inside the library is
// instrumented. A disabled log records nothing.
class SpanLog {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  // Reserves `capacity` spans up front so recording never allocates inside
  // a measured call (the heap counter would see it); spans past the
  // capacity are counted as dropped.
  explicit SpanLog(size_t capacity);

  void set_enabled(bool enabled) { enabled_ = enabled; }

  uint32_t Begin(const char* name, uint64_t request);
  void End(uint32_t id);

  // Self time (duration minus the direct children's durations) summed per
  // span name over the spans that began at or after `since_ns`.
  std::map<std::string, double> SelfMs(int64_t since_ns) const;

  size_t recorded() const { return spans_.size(); }
  uint64_t dropped() const { return dropped_; }

  // Writes every recorded span (name, start/end in µs from the log's
  // creation, id, parent id, request id) as one JSON document.
  bool WriteJson(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    uint32_t parent;
    uint64_t request;
  };

  bool enabled_ = false;
  size_t capacity_;
  uint64_t dropped_ = 0;
  int64_t origin_ns_;
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, uint64_t request)
      : log_(log), id_(log.Begin(name, request)) {}
  ~ScopedSpan() { log_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  uint32_t id_;
};

// ---- Run options and results ----

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  // Traced runs trace every other operation and report per-layer metrics;
  // untraced runs report end-to-end metrics.
  bool trace = false;
  // Thread-pool size for every pool the workloads create.
  size_t threads = 2;
};

// Operation `op` of a traced run is traced when odd, so traced and
// untraced operations interleave and the tracing overhead is measured on
// the same stretch of the run.
inline bool Traced(const RunOptions& options, uint64_t op) {
  return options.trace && op % 2 == 1;
}

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Hash of the outputs of the run's fixed counter window; equal across
  // traced/untraced runs and pool sizes for one seed.
  uint64_t digest = 0;
  std::vector<std::string> errors;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;

  // Records an operation's outcome.
  void Tally(bool ok, uint64_t operations = 1) {
    attempted += operations;
    if (!ok) failed += operations;
  }
  // Records a correctness check; a failed one makes the run incorrect.
  void Check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    errors.push_back(what);
  }
  void Mix(uint64_t value);
};

// ---- Statistics ----

double Median(std::vector<double> samples);  // 0 when empty

// Prints one human-readable report line: the median of `samples` and the
// highest percentile with at least ten samples beyond it.
void ReportTimes(const std::string& name, const std::vector<double>& samples,
                 const char* unit);
void ReportValue(const std::string& name, double value, const char* unit);

// Traced-run metrics shared by every workload: self time per layer per
// traced operation (self_us.<layer>; span names outside the layer list are
// the driver's own time, self_us.bench), the tracing overhead as the
// traced/untraced mean operation time ratio minus one, and the span
// count.
void AddTraceMetrics(const SpanLog& log, int64_t phase_start_ns,
                     uint64_t traced_ops,
                     const std::vector<double>& traced_op_ms,
                     const std::vector<double>& untraced_op_ms,
                     RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
