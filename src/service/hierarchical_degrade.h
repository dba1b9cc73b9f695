// The hierarchical rung of the service degradation ladder: the same
// dense → sparse fallback AdvisorService::BuildAdvisor applies to flat
// cubes (service/advisor_service.cc), for callers standing up a
// HierarchicalAdvisor. Try the dense hierarchical build first; if it is
// impossible (lattice over the size ceilings, too many dimensions for fat
// enumeration) or its cost tables would exceed the memory ceiling, fall
// back to the workload-pruned sparse hierarchical build. Dense and sparse
// graphs store the same per-class cost columns, so the ceiling binds only
// for very large lattices. `*degraded` reports which path was taken, and
// degraded builds bump the same service.degraded_builds counter.

#ifndef OLAPIDX_SERVICE_HIERARCHICAL_DEGRADE_H_
#define OLAPIDX_SERVICE_HIERARCHICAL_DEGRADE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "hierarchy/hierarchical_advisor.h"

namespace olapidx {

struct HierarchicalDegradeOptions {
  // Dense build attempted first.
  HierarchicalGraphOptions dense;
  // Sparse fallback (pruning knobs).
  SparseHierarchicalGraphOptions sparse;
  // Dense cost tables above this fall through to the sparse rung (same
  // default as ServiceOptions::memory_ceiling_bytes).
  uint64_t memory_ceiling_bytes = 1ull << 30;
};

StatusOr<HierarchicalAdvisor> BuildHierarchicalAdvisorDegraded(
    const HierarchicalSchema& schema, double raw_rows,
    const std::vector<WeightedHQuery>& workload,
    const HierarchicalDegradeOptions& options, bool* degraded);

}  // namespace olapidx

#endif  // OLAPIDX_SERVICE_HIERARCHICAL_DEGRADE_H_
