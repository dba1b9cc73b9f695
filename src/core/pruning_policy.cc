#include "core/pruning_policy.h"

#include <bit>
#include <utility>

#include "common/metrics.h"

namespace olapidx {

QueryPruneResult PruneQueriesByMass(const std::vector<double>& frequency,
                                    size_t top_queries, double query_mass) {
  QueryPruneResult out;
  for (double f : frequency) out.total_mass += f;
  std::vector<uint32_t> order(frequency.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return frequency[a] > frequency[b];
  });
  size_t keep = order.size();
  if (query_mass < 1.0 && out.total_mass > 0.0) {
    const double target = query_mass * out.total_mass;
    double acc = 0.0;
    keep = 0;
    while (keep < order.size() && acc < target) {
      acc += frequency[order[keep]];
      ++keep;
    }
  }
  if (top_queries > 0 && top_queries < keep) {
    keep = top_queries;
  }
  order.resize(keep);
  // Restore input order so retained ids are a subsequence of the input's
  // (and identical to it when nothing is dropped).
  std::sort(order.begin(), order.end());
  for (uint32_t qi : order) out.retained_mass += frequency[qi];
  out.retained = std::move(order);
  return out;
}

IndexKey CandidateKey(uint32_t prefix, uint32_t view_mask) {
  OLAPIDX_DCHECK(std::popcount(prefix | view_mask) <= kMaxDimensions);
  int order[kMaxDimensions];
  size_t size = 0;
  for (uint32_t rest = prefix; rest != 0; rest &= rest - 1) {
    order[size++] = std::countr_zero(rest);
  }
  for (uint32_t rest = view_mask & ~prefix; rest != 0; rest &= rest - 1) {
    order[size++] = std::countr_zero(rest);
  }
  return IndexKey(std::span<const int>(order, size));
}

void RecordSparseBuild(const SparseBuildStats& stats) {
  OLAPIDX_METRIC_COUNTER(builds, "graph_build.sparse.builds");
  OLAPIDX_METRIC_COUNTER(workload_q, "graph_build.sparse.workload_queries");
  OLAPIDX_METRIC_COUNTER(retained_q, "graph_build.sparse.retained_queries");
  OLAPIDX_METRIC_COUNTER(dropped_q, "graph_build.sparse.dropped_queries");
  OLAPIDX_METRIC_COUNTER(retained_v, "graph_build.sparse.retained_views");
  OLAPIDX_METRIC_COUNTER(dropped_v, "graph_build.sparse.views_dropped");
  OLAPIDX_METRIC_COUNTER(candidate_v, "graph_build.sparse.candidate_views");
  OLAPIDX_METRIC_COUNTER(candidate_i, "graph_build.sparse.candidate_indexes");
  OLAPIDX_METRIC_COUNTER(cone_visits, "graph_build.sparse.family_cone_visits");
  // Retained frequency mass in permille of the workload total (gauges are
  // integral).
  OLAPIDX_METRIC_GAUGE(mass, "graph_build.sparse.retained_mass_permille");
  builds.Add(1);
  workload_q.Add(stats.workload_queries);
  retained_q.Add(stats.retained_queries);
  dropped_q.Add(stats.workload_queries - stats.retained_queries);
  retained_v.Add(stats.retained_views);
  dropped_v.Add(stats.views_dropped);
  candidate_v.Add(stats.candidate_views);
  candidate_i.Add(stats.candidate_indexes);
  cone_visits.Add(stats.family_cone_visits);
  mass.Set(stats.total_mass > 0.0
               ? static_cast<int64_t>(1000.0 * stats.retained_mass /
                                      stats.total_mass)
               : 1000);
}

}  // namespace olapidx
