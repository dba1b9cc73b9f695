// Instrumentation for query-view graph construction
// (core/lattice_graph_builder.h), in the style of core/selection_metrics.h:
// the fast builder accumulates plain per-chunk counters in its hot loops
// and folds them into the process-wide registry once per build, so the
// fill gains no atomics.
// Everything is a no-op under OLAPIDX_METRICS=OFF. A pruned build's
// graph_build.sparse.* totals are recorded by core/pruning_policy.cc.

#ifndef OLAPIDX_CORE_GRAPH_BUILD_METRICS_H_
#define OLAPIDX_CORE_GRAPH_BUILD_METRICS_H_

#include <cstdint>

#include "common/metrics.h"

namespace olapidx::graph_build_metrics {

// One build's exact totals, reduced from the per-chunk counters in chunk
// order before this is called.
struct BuildStats {
  uint64_t views = 0;
  uint64_t structures = 0;
  uint64_t queries = 0;
  // Answerable (query, view) pairs — the k = 0 view edges.
  uint64_t view_pairs = 0;
  // Prefix-equivalence classes evaluated (cost-model calls). Each column
  // class is costed once per view, by its lowest query, so queries that
  // share a class share its calls.
  uint64_t prefix_classes = 0;
  // Index edges of every (query, view) pair (cost < scan), and the
  // permutations skipped in bulk because their class cost did not beat a
  // scan.
  uint64_t index_edges = 0;
  uint64_t perms_skipped = 0;
  // From the build's start through the fill, and Finalize() alone.
  uint64_t enumerate_micros = 0;
  uint64_t finalize_micros = 0;
  uint64_t total_micros = 0;
  // Modeled peak allocation (not RSS), an upper bound on what the fill
  // holds at once: the gathered query lists, every finished table, and
  // each chunk's scratch at its high-water.
  uint64_t peak_bytes = 0;
};

// Kept out of line so the registry machinery (static-init guards, shard
// lookups) never lands inside the builder's enumeration loops.
[[gnu::noinline]] inline void RecordBuild(const BuildStats& stats) {
  OLAPIDX_METRIC_COUNTER(builds, "graph_build.builds");
  OLAPIDX_METRIC_COUNTER(views, "graph_build.views");
  OLAPIDX_METRIC_COUNTER(structures, "graph_build.structures");
  OLAPIDX_METRIC_COUNTER(queries, "graph_build.queries");
  OLAPIDX_METRIC_COUNTER(view_pairs, "graph_build.view_pairs");
  OLAPIDX_METRIC_COUNTER(classes, "graph_build.prefix_classes");
  OLAPIDX_METRIC_COUNTER(index_edges, "graph_build.index_edges");
  OLAPIDX_METRIC_COUNTER(perms_skipped, "graph_build.perms_skipped");
  OLAPIDX_METRIC_HISTOGRAM(enumerate_wall, "graph_build.enumerate_micros");
  OLAPIDX_METRIC_HISTOGRAM(finalize_wall, "graph_build.finalize_micros");
  OLAPIDX_METRIC_HISTOGRAM(build_wall, "graph_build.build_micros");
  OLAPIDX_METRIC_GAUGE(peak_bytes, "graph_build.peak_bytes");
  builds.Add(1);
  views.Add(stats.views);
  structures.Add(stats.structures);
  queries.Add(stats.queries);
  view_pairs.Add(stats.view_pairs);
  classes.Add(stats.prefix_classes);
  index_edges.Add(stats.index_edges);
  perms_skipped.Add(stats.perms_skipped);
  enumerate_wall.Observe(stats.enumerate_micros);
  finalize_wall.Observe(stats.finalize_micros);
  build_wall.Observe(stats.total_micros);
  // Gauge (not a counter): the latest build's modeled peak, so a dense and
  // a sparse build of the same instance can be compared by reading it
  // after each.
  peak_bytes.Set(static_cast<int64_t>(stats.peak_bytes));
}

}  // namespace olapidx::graph_build_metrics

#endif  // OLAPIDX_CORE_GRAPH_BUILD_METRICS_H_
