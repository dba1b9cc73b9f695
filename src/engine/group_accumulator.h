// GroupAccumulator: aggregates the rows a scan feeds it by group key and
// emits a GroupedResult sorted by encoded group key, its keys decoded
// row-major into one flat array. Shared by the serial Executor and the
// BatchExecutor so both produce byte-identical results — every group is
// AggregateState{} merged with its rows' states in visit order, so two
// scans of the same storage in the same order agree bitwise.
//
// It has two paths, and AccumulatorFor() picks one per query with
// SortsGroups() (group_table.h), from the group-by's key domain and a
// bound on the rows the plan feeds:
//
//  - The hash path merges each row into a GroupTable. A scan often
//    visits rows sorted by the leading group-by attributes: a view scan
//    in the view's key order, an index probe in the index key's.
//    OrderedGroupPrefix() reads that prefix off the plan, and an
//    accumulator told its input is sorted by p > 0 leading attributes
//    aggregates one segment of equal prefix values at a time: when the
//    segment changes it emits the table's groups in key order and clears
//    the table. Segments ascend, so the emitted groups are the whole
//    result in key order. With p = 0 it hashes every group and sorts them
//    once in Finish().
//  - The sort path, for group-bys whose groups are almost as many as
//    their rows, keeps only (key, row) per row: 16 bytes, no state and no
//    probe. Finish() sorts the pairs stably by key (RadixSortByKey),
//    sizes the result once and folds each key's run in visit order,
//    reading every row's state from the plan's storage (RowStates), and
//    writes the keys, sums and states straight into the result. It
//    ignores the ordered prefix.
//
// Both paths fold every group in visit order, so their results, the p = 0
// and p > 0 hash paths included, are bit-identical.

#ifndef OLAPIDX_ENGINE_GROUP_ACCUMULATOR_H_
#define OLAPIDX_ENGINE_GROUP_ACCUMULATOR_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "engine/column_store.h"
#include "engine/executor.h"
#include "engine/group_table.h"
#include "engine/key_codec.h"
#include "engine/key_sort.h"

namespace olapidx {

// How many leading group-by attributes (ascending attribute order) a
// scan's accumulated rows arrive sorted by, when the scan visits rows in
// lexicographic order of `scan_order`. Selection attributes are constant
// on accumulated rows, so they are skipped; the count stops at the first
// other attribute that is not the next group-by attribute. An empty
// `scan_order` (a raw scan) gives 0.
inline size_t OrderedGroupPrefix(const std::vector<int>& scan_order,
                                 AttributeSet group_by,
                                 AttributeSet selection) {
  const std::vector<int> group_attrs = group_by.ToVector();
  size_t prefix = 0;
  for (int a : scan_order) {
    if (selection.Contains(a)) continue;
    if (prefix == group_attrs.size() || a != group_attrs[prefix]) break;
    ++prefix;
  }
  return prefix;
}

// Where a plan's rows keep their aggregate states, for the sort path to
// re-read in Finish(): the view's state array (row-store scans and index
// probes), its column store (columnar scans, whose aggregate() is
// bit-exact) or the fact table's measures (raw scans).
class RowStates {
 public:
  explicit RowStates(const AggregateState* states) : states_(states) {}
  explicit RowStates(const ColumnStore* store) : store_(store) {}
  explicit RowStates(const double* measures) : measures_(measures) {}

  // Calls fn(state_of), state_of(row) returning row's AggregateState: one
  // dispatch on the storage, not one per row.
  template <typename Fn>
  void Visit(Fn&& fn) const {
    if (states_ != nullptr) {
      fn([this](uint32_t row) -> const AggregateState& {
        return states_[row];
      });
    } else if (store_ != nullptr) {
      fn([this](uint32_t row) { return store_->aggregate(row); });
    } else {
      OLAPIDX_CHECK(measures_ != nullptr);
      fn([this](uint32_t row) {
        return AggregateState::OfMeasure(measures_[row]);
      });
    }
  }

 private:
  const AggregateState* states_ = nullptr;
  const ColumnStore* store_ = nullptr;
  const double* measures_ = nullptr;
};

class GroupAccumulator {
 public:
  // The hash path. The rows added must arrive sorted by the first
  // `ordered_prefix` group-by attributes (ascending attribute order).
  GroupAccumulator(const CubeSchema& schema, AttributeSet group_by,
                   size_t ordered_prefix = 0)
      : attrs_(group_by.ToVector()),
        codec_(schema, attrs_),
        ordered_prefix_(ordered_prefix) {
    OLAPIDX_CHECK(ordered_prefix <= attrs_.size());
    if (ordered_prefix > 0) {
      segment_shift_ = codec_.shift(static_cast<int>(ordered_prefix) - 1);
    }
  }

  // The sort path: keeps (key, row) per added row, in any row order, and
  // Finish() reads each row's state from `states`. The states the add
  // calls pass are not used.
  GroupAccumulator(const CubeSchema& schema, AttributeSet group_by,
                   RowStates states)
      : attrs_(group_by.ToVector()),
        codec_(schema, attrs_),
        ordered_prefix_(0),
        sorted_from_(states) {}

  bool sorts() const { return sorted_from_.has_value(); }

  // Hoisted-column variant: `cols[i]` is the raw column of group-by
  // attribute i (ascending attribute order), resolved once per query
  // instead of once per row.
  void AddRow(const uint32_t* const* cols, size_t row,
              const AggregateState& state) {
    scratch_.resize(attrs_.size());
    for (size_t i = 0; i < attrs_.size(); ++i) {
      scratch_[i] = cols[i][row];
    }
    Add(row, codec_.EncodePrefix(scratch_), state);
  }

  // Decoded-row variant for columnar scans: `dims` is indexed by
  // attribute id (ColumnStore::Scan's row image).
  void AddDims(size_t row, const uint32_t* dims, const AggregateState& state) {
    scratch_.resize(attrs_.size());
    for (size_t i = 0; i < attrs_.size(); ++i) {
      scratch_[i] = dims[static_cast<size_t>(attrs_[i])];
    }
    Add(row, codec_.EncodePrefix(scratch_), state);
  }

  GroupedResult Finish() {
    GroupedResult out;
    out.group_attrs = attrs_;
    const size_t width = attrs_.size();
    size_t row = 0;
    const auto size = [&](size_t rows) {
      out.keys = ResultKeys(width, rows);
      out.sums.reserve(rows);
      out.aggregates.reserve(rows);
    };
    const auto append = [&](uint64_t key, const AggregateState& state) {
      uint32_t* values = out.keys.mutable_row(row++);
      for (size_t i = 0; i < width; ++i) {
        values[i] = codec_.Decode(key, static_cast<int>(i));
      }
      out.sums.push_back(state.sum);
      out.aggregates.push_back(state);
    };
    if (sorts()) {
      RadixSortByKey(pairs_);
      size(CountSortedKeys(pairs_));
      sorted_from_->Visit(
          [&](auto state_of) { FoldSortedRuns(pairs_, state_of, append); });
      return out;
    }
    size(done_keys_.size() + groups_.size());
    for (size_t i = 0; i < done_keys_.size(); ++i) {
      append(done_keys_[i], done_states_[i]);
    }
    // The last segment, or every group when the input is unordered.
    groups_.Emit(append);
    return out;
  }

 private:
  void Add(size_t row, uint64_t key, const AggregateState& state) {
    if (sorts()) {
      OLAPIDX_DCHECK(row <= std::numeric_limits<uint32_t>::max());
      pairs_.push_back(KeyRow{key, static_cast<uint32_t>(row)});
      return;
    }
    if (ordered_prefix_ > 0) {
      const uint64_t segment = key >> segment_shift_;
      if (segment != segment_) {
        // Segments only ascend; a caller that claims an order its rows
        // lack fails here.
        OLAPIDX_DCHECK(segment > segment_);
        groups_.Emit([&](uint64_t k, const AggregateState& s) {
          done_keys_.push_back(k);
          done_states_.push_back(s);
        });
        groups_.Clear();
        segment_ = segment;
      }
    }
    groups_.Merge(key, state);
  }

  std::vector<int> attrs_;
  KeyCodec codec_;
  size_t ordered_prefix_;
  // A key's segment id is the key shifted right by segment_shift_: its
  // first ordered_prefix_ attributes.
  int segment_shift_ = 0;
  uint64_t segment_ = 0;  // the segment groups_ holds
  GroupTable groups_;
  // The groups of the segments before segment_, in key order.
  std::vector<uint64_t> done_keys_;
  std::vector<AggregateState> done_states_;
  // The sort path: where Finish() reads states, and one pair per row.
  std::optional<RowStates> sorted_from_;
  std::vector<KeyRow> pairs_;
  std::vector<uint32_t> scratch_;
};

// The accumulator for `query`'s group-by over the rows `plan` feeds it;
// `store` is the column store a columnar view scan reads, else null. One
// rule picks the path: SortsGroups(the group-by's key domain, a bound on
// the rows fed), the bound being the fact rows for a raw scan, the view's
// rows for a view scan and the planner's estimate for an index probe. The
// hash path takes the plan's ordered group-by prefix.
inline GroupAccumulator AccumulatorFor(const Catalog& catalog,
                                       const PlannedAccess& plan,
                                       const ColumnStore* store,
                                       const SliceQuery& query) {
  const CubeSchema& schema = catalog.schema();
  double rows_bound = plan.estimated_cost;
  if (plan.use_raw) {
    rows_bound = static_cast<double>(catalog.fact().num_rows());
  } else if (plan.index == nullptr) {
    rows_bound = static_cast<double>(catalog.view(plan.view).num_rows());
  }
  if (!SortsGroups(schema.DomainSize(query.group_by()), rows_bound)) {
    return GroupAccumulator(schema, query.group_by(),
                            OrderedGroupPrefix(ScanOrder(plan),
                                               query.group_by(),
                                               query.selection()));
  }
  if (plan.use_raw) {
    return GroupAccumulator(schema, query.group_by(),
                            RowStates(catalog.fact().measure_data()));
  }
  if (store != nullptr) {
    return GroupAccumulator(schema, query.group_by(), RowStates(store));
  }
  return GroupAccumulator(
      schema, query.group_by(),
      RowStates(catalog.view(plan.view).aggregate_data()));
}

}  // namespace olapidx

#endif  // OLAPIDX_ENGINE_GROUP_ACCUMULATOR_H_
