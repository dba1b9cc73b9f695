// MaterializedView: a precomputed subcube — the distributive aggregates
// (SUM/COUNT/MIN/MAX of the measure) of the fact table grouped by a set of
// dimensions, stored columnar and sorted by the (ascending-attribute-id)
// group-by key. Every construction aggregates in source-row order, through
// a GroupTable or, when SortsGroups() says the groups are almost as many
// as the source rows (a base view built from the facts), by sorting
// (key, row) pairs stably and folding each key's run; both give the same
// bits. Supports roll-up construction from any ancestor view and
// incremental refresh from appended fact rows: the sorted delta groups
// merge into the sorted rows in one linear pass.

#ifndef OLAPIDX_ENGINE_MATERIALIZED_VIEW_H_
#define OLAPIDX_ENGINE_MATERIALIZED_VIEW_H_

#include <cstdint>
#include <vector>

#include "engine/aggregate_state.h"
#include "engine/fact_table.h"
#include "lattice/attribute_set.h"

namespace olapidx {

class KeyCodec;

class MaterializedView {
 public:
  // Aggregates rows [0, fact.num_rows()) of the fact table directly.
  static MaterializedView FromFactTable(const FactTable& fact,
                                        AttributeSet attrs);

  // Rolls up from an already-materialized ancestor (attrs ⊆ parent.attrs());
  // this is how real ROLAP systems avoid rescanning the raw data.
  static MaterializedView FromView(const MaterializedView& parent,
                                   AttributeSet attrs);

  AttributeSet attrs() const { return attrs_; }
  const CubeSchema& schema() const { return schema_; }
  size_t num_rows() const { return states_.size(); }

  // Value of attribute `attr` (which must be in attrs()) in row `row`.
  uint32_t dim(size_t row, int attr) const {
    int col = column_of_[static_cast<size_t>(attr)];
    OLAPIDX_DCHECK(col >= 0);
    return columns_[static_cast<size_t>(col)][row];
  }
  // SUM(measure) of the group (the paper's cost model counts rows, but the
  // engine answers real aggregates).
  double sum(size_t row) const { return states_[row].sum; }
  const AggregateState& aggregate(size_t row) const { return states_[row]; }

  // Raw column of attribute `attr` (which must be in attrs()), for scan
  // loops that resolve the column once per query instead of once per row.
  // Invalidated by ApplyDelta.
  const uint32_t* column_data(int attr) const {
    int col = column_of_[static_cast<size_t>(attr)];
    OLAPIDX_DCHECK(col >= 0);
    return columns_[static_cast<size_t>(col)].data();
  }
  const AggregateState* aggregate_data() const { return states_.data(); }

  // All group-by attribute values of one row, in ascending attribute order.
  std::vector<uint32_t> RowKey(size_t row) const;

  // Row `row`'s key under `codec`, whose attributes must be in attrs().
  uint64_t KeyAt(const KeyCodec& codec, size_t row) const;

  struct DeltaResult {
    size_t groups_touched = 0;  // groups merged into or inserted
    // Row ids, in the refreshed view, of the inserted groups (ascending).
    std::vector<uint32_t> inserted_rows;
  };

  // Incremental refresh: folds fact rows [begin_row, end_row) into this
  // view in O(num_rows() + d log d) for d delta groups, plus one pass over
  // the delta's fact rows. The delta is aggregated
  // per group in fact-row order, and each group's aggregate is merged once
  // into the existing group of its key; groups new to the view are merged
  // into the sorted rows in one linear pass. Row ids of existing groups
  // shift past the inserted ones, so indexes on this view must be re-keyed
  // (ViewIndex::Rekey) afterwards.
  DeltaResult ApplyDelta(const FactTable& fact, size_t begin_row,
                         size_t end_row);

 private:
  MaterializedView(const CubeSchema& schema, AttributeSet attrs);

  template <typename DimFn, typename StateFn>
  void Aggregate(size_t rows, DimFn&& dim_of, StateFn&& state_of);

  // Owned by value: views must outlive the fact table they were built
  // from (e.g. hierarchical views aggregate a transient recoded table).
  CubeSchema schema_;
  AttributeSet attrs_;
  std::vector<int> attr_list_;  // ascending attribute ids
  std::vector<int> column_of_;  // attr id -> column position or -1
  std::vector<std::vector<uint32_t>> columns_;  // [column][row]
  std::vector<AggregateState> states_;
};

}  // namespace olapidx

#endif  // OLAPIDX_ENGINE_MATERIALIZED_VIEW_H_
