// The pruning-policy layer: which queries, views and index keys a
// query-view graph keeps. Both lattices build through one plan shape. The
// identity plan (TryBuildCubeGraph, and TryBuildHierarchicalCubeGraph with
// no PruningOptions) keeps every query in input order, every lattice view
// with graph id = lattice id, and the canonical key family on every view;
// it runs none of the passes below. The pruned plan (TryBuildSparseCubeGraph,
// and TryBuildHierarchicalCubeGraph with PruningOptions) runs them, in the
// one pipeline PlanPrunedBuild:
//
//   * Query pruning (PruneQueriesByMass) drops the cold tail of the
//     workload — queries outside the smallest hottest-first prefix
//     reaching `query_mass` of the total frequency, and beyond the
//     `top_queries` cap. Dropped queries contribute nothing to the built
//     graph; their mass is recorded (SparseBuildStats::dropped_mass) so
//     the quality loss is visible, never silent.
//   * View retention (RetainSupersetViews) drops lattice views that either
//     cannot answer any retained query (outside every superset cone — pure
//     waste, no quality loss: the sparse graph is the dense one restricted
//     to the kept views, pinned by test) or fall past the `max_views` soft
//     cap (quality-trading; counted in views_dropped and flagged by
//     view_cap_hit). The base view and each retained query's minimal
//     answering view are exempt from the cap, so every retained query
//     always keeps at least one answering view.
//   * Candidate index families (AppendCandidateFamily) drop index
//     permutations of wide views that no retained query's selection can
//     use as a longest prefix; each retained query keeps a key realizing
//     its best possible prefix, so per-query best costs are preserved
//     exactly (pinned by test).
//
// Everything here is deterministic and arithmetic-free: the policies pick
// *which* queries/views/keys exist; all costs still flow through the one
// generic builder (core/lattice_graph_builder.h).

#ifndef OLAPIDX_CORE_PRUNING_POLICY_H_
#define OLAPIDX_CORE_PRUNING_POLICY_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/graph_build_metrics.h"
#include "lattice/index_key.h"

namespace olapidx {

// The knobs of a pruned build (HierarchicalGraphOptions::pruning; the flat
// SparseCubeGraphOptions carries the same four fields).
struct PruningOptions {
  // Keep at most this many queries, highest frequency first (ties broken
  // by workload order). 0 = no cap.
  size_t top_queries = 0;

  // Keep the smallest highest-frequency prefix of the workload whose
  // cumulative frequency reaches this fraction of the total. 1.0 keeps
  // every query (including zero-frequency ones). Must be in (0, 1].
  double query_mass = 1.0;

  // Soft cap on retained views: the base view and each retained query's
  // minimal answering view are always kept; further supersets are added —
  // hottest queries first — until the cap.
  size_t max_views = 1u << 16;

  // Views with more attributes (hierarchical: active dimensions) than this
  // get the workload-derived candidate index family instead of all m! fat
  // indexes. Must be in [0, 8] (the fat-enumeration limit).
  int max_fat_dim = 6;
};

// The one range check of the pruning knobs, run by every pruned build
// before it builds anything: max_fat_dim in [0, 8] and query_mass in
// (0, 1], NaN failing. A template over the options type, like
// PlanPrunedBuild.
template <typename Pruning>
Status ValidatePruningOptions(const Pruning& pruning) {
  if (pruning.max_fat_dim < 0 || pruning.max_fat_dim > 8) {
    return Status::InvalidArgument("max_fat_dim must be in [0, 8] (got " +
                                   std::to_string(pruning.max_fat_dim) + ")");
  }
  if (!(pruning.query_mass > 0.0) || pruning.query_mass > 1.0) {
    return Status::InvalidArgument("query_mass must be in (0, 1]");
  }
  return Status::Ok();
}

// Stats shared by every pruned build, flat or hierarchical.
struct SparseBuildStats {
  size_t workload_queries = 0;
  size_t retained_queries = 0;
  double total_mass = 0.0;
  double retained_mass = 0.0;
  // Frequency mass of the dropped queries (= total_mass - retained_mass),
  // recorded explicitly so the quality cost of pruning is never silent.
  double dropped_mass = 0.0;
  size_t retained_views = 0;
  bool view_cap_hit = false;
  // Superset-cone views the max_views cap excluded. Counting them exactly
  // can cost as much as enumerating the cones, so the post-cap sweep is
  // budgeted; views_dropped_truncated marks a saturated count (the true
  // number is at least views_dropped).
  uint64_t views_dropped = 0;
  bool views_dropped_truncated = false;
  // Views carrying the full fat family vs a workload-derived one.
  size_t fat_views = 0;
  size_t candidate_views = 0;
  uint64_t candidate_indexes = 0;
  // The lattice positions the flat build's gather enumerates for the
  // retained queries with a selection, whose classes make the candidate
  // families (0 when no view is wide): each walks its cone of retained
  // views once, by the cheaper of its superset walk and the retained-view
  // scan. A work counter, exact at any thread count.
  uint64_t family_cone_visits = 0;
  // The generic builder's totals for this build (edge counts, timings,
  // peak_bytes).
  graph_build_metrics::BuildStats build;
};

// Query-pruning policy: hottest-first (stable on input order), keep the
// smallest prefix reaching query_mass × total, cap at top_queries
// (0 = uncapped), then restore input order — retained ids are an ascending
// subsequence of the input, identical to it when nothing is dropped.
struct QueryPruneResult {
  std::vector<uint32_t> retained;  // original query indices, ascending
  double total_mass = 0.0;
  double retained_mass = 0.0;
};
QueryPruneResult PruneQueriesByMass(const std::vector<double>& frequency,
                                    size_t top_queries, double query_mass);

// View-retention policy over any lattice whose views have dense ids in
// [0, lattice_views). Keeps `base_id`, every query's minimal answering
// view (cap-exempt), then superset cones hottest-queries-first up to
// `max_views`. Callbacks:
//   minimal_of(q)    -> the query's minimal answering view id (its A ∪ B /
//                       required-levels view)
//   cone(q, visit)   -> call visit(view_id) for every lattice view able to
//                       answer query q; stop early when visit returns false
// `hot_order` lists retained query positions hottest-first (ties in input
// order). The result's view ids are sorted ascending and id_of inverts
// them (-1 / -2 = not retained), so unpruned lattices keep their original
// ids.
struct ViewRetentionResult {
  std::vector<uint64_t> view_ids;  // retained lattice ids, ascending
  std::vector<int32_t> id_of;      // lattice id -> dense id, < 0 if dropped
  bool cap_hit = false;
  uint64_t views_dropped = 0;
  bool views_dropped_truncated = false;
};

template <typename MinimalFn, typename ConeFn>
ViewRetentionResult RetainSupersetViews(uint64_t lattice_views,
                                        uint64_t base_id,
                                        const std::vector<uint32_t>& hot_order,
                                        size_t max_views,
                                        MinimalFn&& minimal_of,
                                        ConeFn&& cone) {
  ViewRetentionResult out;
  out.id_of.assign(static_cast<size_t>(lattice_views), -1);
  auto mark = [&](uint64_t id) {
    if (out.id_of[static_cast<size_t>(id)] == -1) {
      out.id_of[static_cast<size_t>(id)] = 0;  // real ids assigned below
      out.view_ids.push_back(id);
    }
  };
  mark(base_id);
  for (uint32_t qi : hot_order) {
    mark(minimal_of(qi));
  }
  // Post-cap, keep sweeping (within a budget) to count what the cap cost
  // instead of breaking silently: every first-seen view past the cap is a
  // dropped view (-2 marks it both counted and not-retained).
  int64_t sweep_budget =
      16 * static_cast<int64_t>(std::max<size_t>(max_views, 4096));
  for (uint32_t qi : hot_order) {
    if (out.view_ids.size() >= max_views && sweep_budget <= 0) break;
    cone(qi, [&](uint64_t id) {
      if (out.view_ids.size() < max_views) {
        mark(id);
        return true;
      }
      if (out.id_of[static_cast<size_t>(id)] == -1) {
        out.cap_hit = true;
        out.id_of[static_cast<size_t>(id)] = -2;
        ++out.views_dropped;
      }
      return --sweep_budget > 0;
    });
  }
  if (sweep_budget <= 0) out.views_dropped_truncated = true;
  std::sort(out.view_ids.begin(), out.view_ids.end());
  for (size_t v = 0; v < out.view_ids.size(); ++v) {
    out.id_of[static_cast<size_t>(out.view_ids[v])] =
        static_cast<int32_t>(v);
  }
  return out;
}

// A pruned build's plan: the input queries and lattice views the graph
// keeps. The identity plan has no such object; the builders take a null
// plan for it.
struct PrunedPlan {
  std::vector<uint32_t> queries;  // retained input positions, ascending
  ViewRetentionResult views;      // retained lattice ids and their inverse
};

// The pruning pipeline of both lattices' pruned plans: query pruning under
// `pruning`'s top_queries and query_mass, then view retention over the
// retained queries, hottest first (ties in input order), under max_views.
// minimal_of and cone are RetainSupersetViews' callbacks, keyed by input
// query position. Fills the query and view fields of `stats`.
template <typename Pruning, typename MinimalFn, typename ConeFn>
PrunedPlan PlanPrunedBuild(const Pruning& pruning,
                           const std::vector<double>& frequency,
                           uint64_t lattice_views, uint64_t base_id,
                           MinimalFn&& minimal_of, ConeFn&& cone,
                           SparseBuildStats& stats) {
  QueryPruneResult pruned = PruneQueriesByMass(
      frequency, pruning.top_queries, pruning.query_mass);
  stats.workload_queries = frequency.size();
  stats.retained_queries = pruned.retained.size();
  stats.total_mass = pruned.total_mass;
  stats.retained_mass = pruned.retained_mass;
  stats.dropped_mass = stats.total_mass - stats.retained_mass;
  std::vector<uint32_t> hot_order = pruned.retained;
  std::stable_sort(hot_order.begin(), hot_order.end(),
                   [&](uint32_t a, uint32_t b) {
                     return frequency[a] > frequency[b];
                   });
  PrunedPlan plan;
  plan.views = RetainSupersetViews(lattice_views, base_id, hot_order,
                                   pruning.max_views, minimal_of, cone);
  stats.retained_views = plan.views.view_ids.size();
  stats.view_cap_hit = plan.views.cap_hit;
  stats.views_dropped = plan.views.views_dropped;
  stats.views_dropped_truncated = plan.views.views_dropped_truncated;
  plan.queries = std::move(pruned.retained);
  return plan;
}

// Candidate-key policy: the one fat key serving a distinct selection class
// `prefix` at a wide view: the prefix bits ascending, then the view's
// remaining bits ascending. Bit i stands for attribute/dimension i (the
// same convention as WalkPrefixClasses).
IndexKey CandidateKey(uint32_t prefix, uint32_t view_mask);

// The candidate family of a wide view from its gathered selection classes
// (selection ∩ view, as bit masks, of the retained queries answerable
// there; duplicates allowed, and 0 — an empty selection — makes no key):
// make_key(p) for each distinct non-zero class p. Keys of different
// classes can coincide, so the family is sorted and deduplicated:
// deterministic in the workload. Appends the family to `out`; sorts
// `classes` in place.
template <typename Key, typename MakeKey>
void AppendCandidateFamily(std::span<uint32_t> classes, MakeKey&& make_key,
                           std::vector<Key>& out) {
  std::sort(classes.begin(), classes.end());
  const auto last = std::unique(classes.begin(), classes.end());
  const auto first = static_cast<std::ptrdiff_t>(out.size());
  for (auto it = classes.begin(); it != last; ++it) {
    if (*it != 0) out.push_back(make_key(*it));
  }
  std::sort(out.begin() + first, out.end());
  out.erase(std::unique(out.begin() + first, out.end()), out.end());
}

// Publishes a finished pruned build's totals as the graph_build.sparse.*
// metrics. Identity-plan builds record none.
void RecordSparseBuild(const SparseBuildStats& stats);

}  // namespace olapidx

#endif  // OLAPIDX_CORE_PRUNING_POLICY_H_
