#include "core/selection_result.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace olapidx {

std::string EvaluationStats::ToString() const {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "%llu stages, %llu evaluated / %llu cached (%.1f%% hit), "
                "%llu bound-pruned, %.1f ms, %zu thread%s",
                static_cast<unsigned long long>(stages),
                static_cast<unsigned long long>(cache_misses),
                static_cast<unsigned long long>(cache_hits),
                100.0 * CacheHitRate(),
                static_cast<unsigned long long>(bound_prunes),
                static_cast<double>(total_wall_micros) / 1000.0,
                threads_used, threads_used == 1 ? "" : "s");
  return buf;
}

double EvaluationStats::ChunkImbalance() const {
  uint64_t total = 0;
  uint64_t busiest = 0;
  for (uint64_t micros : chunk_busy_micros) {
    total += micros;
    busiest = std::max(busiest, micros);
  }
  if (total == 0) return 1.0;
  return static_cast<double>(busiest) *
         static_cast<double>(chunk_busy_micros.size()) /
         static_cast<double>(total);
}

Status ValidateSelectionInput(const QueryViewGraph& graph,
                              double space_budget) {
  if (!graph.finalized()) {
    return Status::FailedPrecondition("query-view graph is not finalized");
  }
  if (!std::isfinite(space_budget) || space_budget < 0.0) {
    return Status::InvalidArgument(
        "space budget must be non-negative and finite");
  }
  return Status::Ok();
}

std::string SelectionResult::PicksToString(
    const QueryViewGraph& graph) const {
  std::string out;
  for (const StructureRef& s : picks) {
    if (!out.empty()) out += ", ";
    out += graph.StructureName(s);
  }
  return out;
}

}  // namespace olapidx
