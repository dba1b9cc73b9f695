// GroupAccumulator: accumulates (group key → aggregate state) pairs in a
// GroupTable and emits a GroupedResult sorted by encoded group key, its
// keys decoded row-major into one flat array. Shared by the serial
// Executor and the BatchExecutor so both produce byte-identical results —
// the per-group merge order is the row visit order, so two scans of the
// same storage in the same order agree bitwise.
//
// A scan often visits rows sorted by the leading group-by attributes: a
// view scan visits them in the view's key order, an index probe in the
// index key's. OrderedGroupPrefix() reads that prefix off the plan, and
// an accumulator told its input is sorted by p > 0 leading attributes
// aggregates one segment of equal prefix values at a time: when the
// segment changes it emits the table's groups in key order and clears the
// table. Segments ascend, so the emitted groups are the whole result in
// key order, with no table of every group and no global sort. Every group
// lies in one segment and folds its rows in visit order there, so the
// result is bit-identical to the p = 0 path, which hashes every group and
// sorts them once in Finish().

#ifndef OLAPIDX_ENGINE_GROUP_ACCUMULATOR_H_
#define OLAPIDX_ENGINE_GROUP_ACCUMULATOR_H_

#include <cstdint>
#include <vector>

#include "engine/executor.h"
#include "engine/group_table.h"
#include "engine/key_codec.h"

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

class GroupAccumulator {
 public:
  // The rows added must arrive sorted by the first `ordered_prefix`
  // group-by attributes (ascending attribute order).
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

  // `value_of(attr)` returns the current row's value of `attr`.
  template <typename ValueFn>
  void Add(ValueFn&& value_of, const AggregateState& state) {
    scratch_.resize(attrs_.size());
    for (size_t i = 0; i < attrs_.size(); ++i) {
      scratch_[i] = value_of(attrs_[i]);
    }
    Merge(codec_.EncodePrefix(scratch_), state);
  }

  // Hoisted-column variant: `cols[i]` is the raw column of group-by
  // attribute i (ascending attribute order), resolved once per query
  // instead of once per row.
  void AddRow(const uint32_t* const* cols, size_t row,
              const AggregateState& state) {
    scratch_.resize(attrs_.size());
    for (size_t i = 0; i < attrs_.size(); ++i) {
      scratch_[i] = cols[i][row];
    }
    Merge(codec_.EncodePrefix(scratch_), state);
  }

  // Decoded-row variant for columnar scans: `dims` is indexed by
  // attribute id (ColumnStore::Scan's row image).
  void AddDims(const uint32_t* dims, const AggregateState& state) {
    scratch_.resize(attrs_.size());
    for (size_t i = 0; i < attrs_.size(); ++i) {
      scratch_[i] = dims[static_cast<size_t>(attrs_[i])];
    }
    Merge(codec_.EncodePrefix(scratch_), state);
  }

  GroupedResult Finish() const {
    GroupedResult out;
    out.group_attrs = attrs_;
    const size_t width = attrs_.size();
    const size_t rows = done_keys_.size() + groups_.size();
    out.keys = ResultKeys(width, rows);
    out.sums.reserve(rows);
    out.aggregates.reserve(rows);
    size_t row = 0;
    const auto append = [&](uint64_t key, const AggregateState& state) {
      uint32_t* values = out.keys.mutable_row(row++);
      for (size_t i = 0; i < width; ++i) {
        values[i] = codec_.Decode(key, static_cast<int>(i));
      }
      out.sums.push_back(state.sum);
      out.aggregates.push_back(state);
    };
    for (size_t i = 0; i < done_keys_.size(); ++i) {
      append(done_keys_[i], done_states_[i]);
    }
    // The last segment, or every group when the input is unordered.
    groups_.Emit(append);
    return out;
  }

 private:
  void Merge(uint64_t key, const AggregateState& state) {
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
  std::vector<uint32_t> scratch_;
};

}  // namespace olapidx

#endif  // OLAPIDX_ENGINE_GROUP_ACCUMULATOR_H_
