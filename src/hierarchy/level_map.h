// Child-to-parent code mappings between adjacent hierarchy levels
// (store → city → region): the physical data needed to materialize a
// hierarchical view from a finest-level fact table. Real systems read
// these from the dimension tables; Balanced() generates deterministic
// synthetic ones for simulation.

#ifndef OLAPIDX_HIERARCHY_LEVEL_MAP_H_
#define OLAPIDX_HIERARCHY_LEVEL_MAP_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "hierarchy/hierarchical_schema.h"

namespace olapidx {

class DimensionLevelMap {
 public:
  // up[l][code] = the level-(l+1) parent of level-l member `code`;
  // up.size() must be num_levels - 1 and each table must cover the
  // child level's cardinality with parents within the parent level's.
  DimensionLevelMap(const HierarchicalDimension& dimension,
                    std::vector<std::vector<uint32_t>> up);

  // Maps a level-`from` code to its ancestor at level `to`
  // (from <= to <= num_levels; the ALL level maps everything to 0).
  uint32_t MapUp(int from_level, int to_level, uint32_t code) const;

  int num_levels() const { return static_cast<int>(up_.size()) + 1; }

  // A deterministic balanced *clustered* hierarchy: child c at level l has
  // parent floor(c · parents / children), so each parent's children form a
  // contiguous code range — the standard ROLAP key encoding (day codes
  // ordered by date ⇒ each month is a contiguous day range), which is what
  // lets a fine-keyed index serve coarser selections as range scans.
  static DimensionLevelMap Balanced(const HierarchicalDimension& dimension);

  // True iff every adjacent map is monotone non-decreasing (clustered).
  bool IsClustered() const;

  // For a clustered map: the inclusive range of level-`from` codes whose
  // ancestor at level `to` equals `parent` (empty ranges return
  // {1, 0}-style lo > hi). `to` may be the ALL level (full range).
  std::pair<uint32_t, uint32_t> ChildRange(int from_level, int to_level,
                                           uint32_t parent,
                                           uint32_t from_cardinality) const;

 private:
  std::vector<std::vector<uint32_t>> up_;
};

class HierarchyMaps {
 public:
  HierarchyMaps(const HierarchicalSchema* schema,
                std::vector<DimensionLevelMap> dims);

  static HierarchyMaps Balanced(const HierarchicalSchema& schema);

  const HierarchicalSchema& schema() const { return *schema_; }
  const DimensionLevelMap& dimension(int d) const {
    return dims_[static_cast<size_t>(d)];
  }

 private:
  const HierarchicalSchema* schema_;
  std::vector<DimensionLevelMap> dims_;
};

}  // namespace olapidx

#endif  // OLAPIDX_HIERARCHY_LEVEL_MAP_H_
