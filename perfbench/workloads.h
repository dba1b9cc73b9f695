// The benchmark's workloads. Each runs one closed-loop client against the
// library, checks its outputs, and fills a RunResult (see README.md for the
// workloads, their metrics, and why each was chosen).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

RunResult RunAdvise(const RunOptions& options, SpanLog& log);
RunResult RunServeHot(const RunOptions& options, SpanLog& log);
RunResult RunServeCold(const RunOptions& options, SpanLog& log);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
