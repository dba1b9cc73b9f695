// Physical execution of hierarchical slice queries: a catalog of
// materialized leveled views (with sorted indexes keyed at view levels)
// plus an executor that picks the cheapest access path, filters coarser
// selections through the level maps, aggregates to the query's group-by
// levels, and counts rows processed.
//
// Index usability on a hierarchy (clustered key encodings): a key prefix
// of point-valued dimensions (selection at exactly the view's level),
// optionally followed by one range dimension (selection at a coarser
// level — a contiguous child-code range), defines one contiguous range of
// index entries; remaining selections are post-filtered.

#ifndef OLAPIDX_HIERARCHY_HIERARCHICAL_EXECUTOR_H_
#define OLAPIDX_HIERARCHY_HIERARCHICAL_EXECUTOR_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/view_index.h"
#include "hierarchy/hierarchical_engine.h"

namespace olapidx {

class HierarchicalCatalog {
 public:
  // Caller owns `fact` (finest-level codes) and `maps`; both must outlive
  // the catalog. Level maps must be clustered.
  HierarchicalCatalog(const FactTable* fact, const HierarchyMaps* maps);

  HierarchicalCatalog(const HierarchicalCatalog&) = delete;
  HierarchicalCatalog& operator=(const HierarchicalCatalog&) = delete;

  const FactTable& fact() const { return *fact_; }
  const HierarchyMaps& maps() const { return *maps_; }
  const HierarchicalSchema& schema() const { return maps_->schema(); }

  // Materializes the subcube at `levels` (idempotent); returns its rows.
  size_t MaterializeView(const LevelVector& levels);
  bool HasView(const LevelVector& levels) const;

  // Builds an index keyed by `dim_order` (hierarchy dimension ids,
  // all active in the view) over the view's leveled codes.
  void BuildIndex(const LevelVector& levels,
                  const std::vector<int>& dim_order);

  const std::vector<LevelVector>& materialized_views() const {
    return order_;
  }

  double TotalSpaceRows() const;

  // Internal per-view record, exposed for the executor.
  struct LeveledView {
    LevelVector levels;
    std::vector<int> active_dims;  // hierarchy dim ids, ascending
    MaterializedView view;         // over LeveledSchema(...)
    struct Index {
      std::vector<int> dim_order;  // hierarchy dim ids in key order
      ViewIndex index;             // keyed by leveled-schema positions
    };
    std::vector<Index> indexes;
  };
  const LeveledView* Find(const LevelVector& levels) const;

 private:
  const FactTable* fact_;
  const HierarchyMaps* maps_;
  HierarchicalLattice lattice_;
  std::map<HViewId, std::unique_ptr<LeveledView>> views_;
  std::vector<LevelVector> order_;
};

struct HExecutionStats {
  uint64_t rows_processed = 0;
  bool used_raw = true;
  LevelVector view;              // meaningful when !used_raw
  std::vector<int> index_order;  // empty = plain scan
  double estimated_cost = 0.0;
};

// One result row: group-by values at the *query's* group levels.
struct HGroupedResult {
  std::vector<int> group_dims;              // hierarchy dim ids, ascending
  std::vector<std::vector<uint32_t>> keys;  // values at the query's levels
  std::vector<AggregateState> aggregates;

  size_t num_rows() const { return aggregates.size(); }
};

class HierarchicalExecutor {
 public:
  explicit HierarchicalExecutor(const HierarchicalCatalog* catalog);

  // `selection_values` is parallel to the query's select dimensions in
  // ascending dimension order, each value at that dimension's query level.
  HGroupedResult Execute(const HSliceQuery& query,
                         const std::vector<uint32_t>& selection_values,
                         HExecutionStats* stats = nullptr) const;

  // Reference implementation over the raw finest-level fact table.
  HGroupedResult ExecuteNaive(
      const HSliceQuery& query,
      const std::vector<uint32_t>& selection_values) const;

 private:
  const HierarchicalCatalog* catalog_;
};

}  // namespace olapidx

#endif  // OLAPIDX_HIERARCHY_HIERARCHICAL_EXECUTOR_H_
