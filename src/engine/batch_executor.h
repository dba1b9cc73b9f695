// BatchExecutor: throughput-grade serving of many slice queries at once.
//
// Identical requests — same query, same selection values, the common case
// when a Zipf-popular dashboard slice is replayed — are coalesced first:
// one primary executes, copies receive its result verbatim. This shares
// the per-query accumulate/Finish work that scan grouping alone cannot.
// Unique queries are then planned individually (via PlanAccess, the exact
// planner the serial Executor runs) and grouped by access path: all whose
// plan scans the same table — the raw fact table or one view — share a
// single scan, with each query's hoisted selection predicates evaluated
// against every row. Index probes group by (view, index, prefix values)
// so identical descents happen once. The physical work is therefore one
// read per (shared scan, row) instead of one per (query, row): the
// amortization the serving bench measures as QPS.
//
// A group is split into tasks of at most kMaxSharedQueriesPerScan member
// queries, and each task runs the scan kernel Executor::Execute runs
// (ScanForMembers, group_accumulator.h) for its members, so one hot plan
// can occupy several threads and the per-row accumulator fan-out stays
// cache-sized. A shared scan reads row storage; a view scan whose task
// serves one query with a selection reads the view's column store when
// the catalog holds one, as Execute does.
//
// Tasks fan out over a fixed-size ThreadPool: ordered by descending
// estimated work and dealt round-robin into one bucket per thread, and
// each query writes only its own result slot — so results are
// deterministic for a given batch regardless of thread count, and
// bit-identical to serial Executor::Execute over the same catalog (both
// stores keep the view's row order, so every query sees its rows in the
// same order → same float merge order).

#ifndef OLAPIDX_ENGINE_BATCH_EXECUTOR_H_
#define OLAPIDX_ENGINE_BATCH_EXECUTOR_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "engine/executor.h"

namespace olapidx {

// Physical-work accounting for one ExecuteBatch call. `logical_rows` is
// what a serial executor would have scanned (Σ per-query rows_processed);
// `rows_decoded` is what the batch actually decoded (once per shared
// scan) — their ratio is the scan-sharing factor.
struct BatchStats {
  uint64_t queries = 0;
  uint64_t unique_queries = 0;  // after identical-request coalescing
  uint64_t scan_groups = 0;   // shared raw/view scans performed
  uint64_t probe_groups = 0;  // shared index descents performed
  uint64_t columnar_scans = 0;
  uint64_t rows_decoded = 0;
  uint64_t logical_rows = 0;
  uint64_t bytes_scanned = 0;  // physical bytes, once per shared scan
};

class BatchExecutor {
 public:
  // The caller owns `catalog` and must keep it alive. `num_threads` sizes
  // the private pool the per-group fan-out runs on (1 = serial).
  explicit BatchExecutor(const Catalog* catalog, size_t num_threads = 1);

  // Answers queries[i] with selection_values[i] (parallel vectors; each
  // inner vector parallel to queries[i].selection().ToVector()). Aborts
  // on malformed input, like Executor::Execute. stats (when non-null) is
  // resized to one ExecutionStats per query: its plan fields and
  // rows_processed are what the serial executor would have reported, and
  // used_columnar and bytes_scanned describe the physical scan that
  // served it.
  std::vector<GroupedResult> ExecuteBatch(
      const std::vector<SliceQuery>& queries,
      const std::vector<std::vector<uint32_t>>& selection_values,
      std::vector<ExecutionStats>* stats = nullptr,
      BatchStats* batch_stats = nullptr) const;

  // Status-returning variant: runs CheckQueryInput on every query up
  // front (InvalidArgument naming the first offender) before any work
  // runs, and crosses the "executor.batch" fault point. An empty batch is
  // OK and returns no results.
  Status TryExecuteBatch(
      const std::vector<SliceQuery>& queries,
      const std::vector<std::vector<uint32_t>>& selection_values,
      std::vector<GroupedResult>* out,
      std::vector<ExecutionStats>* stats = nullptr,
      BatchStats* batch_stats = nullptr) const;

  // Same hook and contract as Executor::SetQueryObserver: called once per
  // query, in batch order, after the batch completes — on the calling
  // thread, so a sketch-feeding observer needs no extra locking beyond
  // what serial TryExecute already required.
  void SetQueryObserver(Executor::QueryObserver observer) {
    observer_ = std::move(observer);
  }

  size_t num_threads() const { return pool_.num_threads(); }

 private:
  const Catalog* catalog_;
  mutable ThreadPool pool_;
  Executor::QueryObserver observer_;
};

}  // namespace olapidx

#endif  // OLAPIDX_ENGINE_BATCH_EXECUTOR_H_
