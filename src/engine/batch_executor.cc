#include "engine/batch_executor.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <string>
#include <unordered_map>

#include "common/fault_injection.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "engine/group_accumulator.h"

namespace olapidx {

namespace {

// Queries whose plans share one physical scan or probe.
struct Group {
  PlannedAccess plan;
  std::vector<size_t> members;  // query indices, batch order
};

// Cap on how many queries share one physical scan. Beyond this the
// per-row member loop walks too many accumulators to stay in cache and
// the group monopolizes one thread; a large group is instead split into
// several scans of at most this many queries each — every query still
// sees the full scan in row order, so results are unchanged, while the
// split exposes intra-plan parallelism to the pool.
constexpr size_t kMaxSharedQueriesPerScan = 16;

// One physical scan/probe: a group and the member subrange it serves.
struct Task {
  size_t group = 0;
  size_t member_begin = 0;
  size_t member_end = 0;
};

void AppendBytes(std::string* key, const void* data, size_t n) {
  key->append(static_cast<const char*>(data), n);
}

// Plans share a physical scan iff their key bytes match: raw scans all
// match, view scans match per view, probes match per (view, index
// identity, prefix values).
std::string GroupKey(const PlannedAccess& plan,
                     const std::vector<uint32_t>& prefix_values) {
  std::string key;
  if (plan.use_raw) {
    key.push_back('R');
    return key;
  }
  uint64_t mask = plan.view.mask();
  if (plan.index == nullptr) {
    key.push_back('V');
    AppendBytes(&key, &mask, sizeof(mask));
    return key;
  }
  key.push_back('I');
  AppendBytes(&key, &mask, sizeof(mask));
  const ViewIndex* index = plan.index;
  AppendBytes(&key, &index, sizeof(index));
  for (uint32_t v : prefix_values) AppendBytes(&key, &v, sizeof(v));
  return key;
}

}  // namespace

BatchExecutor::BatchExecutor(const Catalog* catalog, size_t num_threads)
    : catalog_(catalog), pool_(num_threads) {
  OLAPIDX_CHECK(catalog != nullptr);
}

std::vector<GroupedResult> BatchExecutor::ExecuteBatch(
    const std::vector<SliceQuery>& queries,
    const std::vector<std::vector<uint32_t>>& selection_values,
    std::vector<ExecutionStats>* stats, BatchStats* batch_stats) const {
  OLAPIDX_TRACE_SPAN("executor.batch");
  OLAPIDX_CHECK(queries.size() == selection_values.size());
  const size_t num_queries = queries.size();

  std::vector<GroupedResult> results(num_queries);
  // Stats are always produced — the observer contract needs them even
  // when the caller asked for none.
  std::vector<ExecutionStats> local_stats;
  if (stats == nullptr) stats = &local_stats;
  stats->assign(num_queries, ExecutionStats{});
  BatchStats local_batch;
  local_batch.queries = num_queries;

  // ---- Coalesce identical requests. A serving batch repeats popular
  // (query, selection-values) pairs — the same dashboard slice asked
  // again — and every copy would redo identical work, including the
  // per-query accumulate and Finish that scan sharing cannot amortize.
  // Only the first occurrence (the request's "primary") executes; copies
  // take the primary's result and stats verbatim afterwards, which is
  // bit-identical to executing them by definition. ----
  std::vector<size_t> primary_of(num_queries);
  std::vector<size_t> primaries;
  {
    std::unordered_map<std::string, size_t> first_seen;
    first_seen.reserve(num_queries * 2);
    for (size_t i = 0; i < num_queries; ++i) {
      std::string key;
      const uint64_t gmask = queries[i].group_by().mask();
      const uint64_t smask = queries[i].selection().mask();
      AppendBytes(&key, &gmask, sizeof(gmask));
      AppendBytes(&key, &smask, sizeof(smask));
      for (uint32_t v : selection_values[i]) AppendBytes(&key, &v, sizeof(v));
      auto [it, inserted] = first_seen.emplace(std::move(key), i);
      primary_of[i] = it->second;
      if (inserted) primaries.push_back(i);
    }
  }
  local_batch.unique_queries = primaries.size();

  // ---- Plan every unique request and group by shared physical access. ----
  std::vector<Group> groups;
  std::unordered_map<std::string, size_t> group_of;
  for (size_t i : primaries) {
    const SliceQuery& query = queries[i];
    OLAPIDX_CHECK(selection_values[i].size() ==
                  static_cast<size_t>(query.selection().size()));
    const PlannedAccess plan = PlanAccess(*catalog_, query);
    auto [it, inserted] = group_of.emplace(
        GroupKey(plan, ProbePrefixValues(plan, query, selection_values[i])),
        groups.size());
    if (inserted) groups.push_back(Group{plan, {}});
    groups[it->second].members.push_back(i);
  }

  // ---- Split groups into tasks: one physical scan/probe each, serving
  // at most kMaxSharedQueriesPerScan member queries. Every query sees the
  // full scan in row order, so the split never changes results; it only
  // bounds per-row accumulator fan-out and lets one hot plan use several
  // threads. ----
  std::vector<Task> tasks;
  for (size_t g = 0; g < groups.size(); ++g) {
    const size_t n = groups[g].members.size();
    for (size_t begin = 0; begin < n; begin += kMaxSharedQueriesPerScan) {
      tasks.push_back(
          Task{g, begin, std::min(n, begin + kMaxSharedQueriesPerScan)});
    }
  }

  std::vector<PhysicalScan> physical(tasks.size());
  auto run_task = [&](size_t task_index) {
    const Task& task = tasks[task_index];
    const Group& group = groups[task.group];
    std::vector<ScanMember> members;
    members.reserve(task.member_end - task.member_begin);
    for (size_t mi = task.member_begin; mi < task.member_end; ++mi) {
      const size_t i = group.members[mi];
      members.push_back({&queries[i], &selection_values[i], &results[i]});
    }
    // The batch's parallelism is across tasks, so a task runs on its own
    // thread, without a pool. Every member writes only its own slots.
    physical[task_index] =
        ScanForMembers(*catalog_, group.plan, members, /*pool=*/nullptr);
    const ExecutionStats member_stats =
        StatsOf(group.plan, physical[task_index]);
    for (size_t mi = task.member_begin; mi < task.member_end; ++mi) {
      (*stats)[group.members[mi]] = member_stats;
    }
  };

  // ---- Fan out: deal tasks round-robin (largest first) into one bucket
  // per thread; task boundaries and bucket contents depend only on the
  // batch, so runs are reproducible, and results are identical for any
  // thread count because tasks never share mutable state. ----
  std::vector<size_t> by_work(tasks.size());
  std::iota(by_work.begin(), by_work.end(), size_t{0});
  auto work_of = [&](size_t t) {
    const Group& g = groups[tasks[t].group];
    uint64_t rows = g.plan.use_raw
                        ? catalog_->fact().num_rows()
                        : catalog_->view(g.plan.view).num_rows();
    return rows * std::max<uint64_t>(
                      1, tasks[t].member_end - tasks[t].member_begin);
  };
  std::stable_sort(by_work.begin(), by_work.end(),
                   [&](size_t a, size_t b) {
                     return work_of(a) > work_of(b);
                   });
  const size_t num_buckets = pool_.num_threads();
  std::vector<std::vector<size_t>> buckets(num_buckets);
  for (size_t k = 0; k < by_work.size(); ++k) {
    buckets[k % num_buckets].push_back(by_work[k]);
  }
  pool_.ParallelFor(num_buckets,
                    [&](size_t begin, size_t end, size_t chunk) {
                      (void)chunk;
                      for (size_t b = begin; b < end; ++b) {
                        for (size_t t : buckets[b]) run_task(t);
                      }
                    });

  // ---- Propagate primaries' results to their coalesced copies. ----
  for (size_t i = 0; i < num_queries; ++i) {
    if (primary_of[i] != i) {
      results[i] = results[primary_of[i]];
      (*stats)[i] = (*stats)[primary_of[i]];
    }
  }

  // ---- Accounting (one registry update per batch) and notification. ----
  uint64_t sorted_members = 0;
  for (size_t t = 0; t < tasks.size(); ++t) {
    sorted_members += physical[t].sorted_members;
    if (groups[tasks[t].group].plan.index != nullptr) {
      ++local_batch.probe_groups;
    } else {
      ++local_batch.scan_groups;
    }
    if (physical[t].used_columnar) ++local_batch.columnar_scans;
    local_batch.rows_decoded += physical[t].rows;
    local_batch.bytes_scanned += physical[t].bytes_scanned;
  }
  // What a serial executor would have scanned, duplicates included.
  for (size_t i = 0; i < num_queries; ++i) {
    local_batch.logical_rows += (*stats)[i].rows_processed;
  }
  OLAPIDX_METRIC_COUNTER(batches, "executor.batch.batches");
  OLAPIDX_METRIC_COUNTER(batch_queries, "executor.batch.queries");
  OLAPIDX_METRIC_COUNTER(unique_queries, "executor.batch.unique_queries");
  OLAPIDX_METRIC_COUNTER(scan_groups, "executor.batch.scan_groups");
  OLAPIDX_METRIC_COUNTER(probe_groups, "executor.batch.probe_groups");
  OLAPIDX_METRIC_COUNTER(rows_decoded, "executor.batch.rows_decoded");
  OLAPIDX_METRIC_COUNTER(columnar, "executor.batch.columnar_scans");
  OLAPIDX_METRIC_COUNTER(sorted, "executor.batch.aggregations_sorted");
  batches.Add(1);
  batch_queries.Add(local_batch.queries);
  unique_queries.Add(local_batch.unique_queries);
  scan_groups.Add(local_batch.scan_groups);
  probe_groups.Add(local_batch.probe_groups);
  rows_decoded.Add(local_batch.rows_decoded);
  columnar.Add(local_batch.columnar_scans);
  sorted.Add(sorted_members);

  if (observer_) {
    for (size_t i = 0; i < num_queries; ++i) {
      observer_(queries[i], (*stats)[i]);
    }
  }

  if (batch_stats != nullptr) *batch_stats = local_batch;
  return results;
}

Status BatchExecutor::TryExecuteBatch(
    const std::vector<SliceQuery>& queries,
    const std::vector<std::vector<uint32_t>>& selection_values,
    std::vector<GroupedResult>* out, std::vector<ExecutionStats>* stats,
    BatchStats* batch_stats) const {
  OLAPIDX_CHECK(out != nullptr);
  OLAPIDX_FAULT_POINT("executor.batch");
  if (queries.size() != selection_values.size()) {
    return Status::InvalidArgument(
        "batch has " + std::to_string(queries.size()) + " query(ies) but " +
        std::to_string(selection_values.size()) +
        " selection-value vector(s)");
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    if (Status s = CheckQueryInput(catalog_->schema(), queries[i],
                                   selection_values[i]);
        !s.ok()) {
      return s.WithContext("batch query " + std::to_string(i));
    }
  }
  *out = ExecuteBatch(queries, selection_values, stats, batch_stats);
  return Status::Ok();
}

}  // namespace olapidx
