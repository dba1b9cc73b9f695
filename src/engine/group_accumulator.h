// GroupAccumulator: accumulates (group key → aggregate state) pairs in a
// GroupTable and emits a GroupedResult sorted by encoded group key, its
// keys decoded row-major into one flat array. Shared by the serial
// Executor and the BatchExecutor so both produce byte-identical results —
// the per-group merge order is the row visit order, so two scans of the
// same storage in the same order agree bitwise.

#ifndef OLAPIDX_ENGINE_GROUP_ACCUMULATOR_H_
#define OLAPIDX_ENGINE_GROUP_ACCUMULATOR_H_

#include <cstdint>
#include <vector>

#include "engine/executor.h"
#include "engine/group_table.h"
#include "engine/key_codec.h"

namespace olapidx {

class GroupAccumulator {
 public:
  GroupAccumulator(const CubeSchema& schema, AttributeSet group_by)
      : attrs_(group_by.ToVector()), codec_(schema, attrs_) {}

  // `value_of(attr)` returns the current row's value of `attr`.
  template <typename ValueFn>
  void Add(ValueFn&& value_of, const AggregateState& state) {
    scratch_.resize(attrs_.size());
    for (size_t i = 0; i < attrs_.size(); ++i) {
      scratch_[i] = value_of(attrs_[i]);
    }
    groups_.Merge(codec_.EncodePrefix(scratch_), state);
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
    groups_.Merge(codec_.EncodePrefix(scratch_), state);
  }

  // Decoded-row variant for columnar scans: `dims` is indexed by
  // attribute id (ColumnStore::Scan's row image).
  void AddDims(const uint32_t* dims, const AggregateState& state) {
    scratch_.resize(attrs_.size());
    for (size_t i = 0; i < attrs_.size(); ++i) {
      scratch_[i] = dims[static_cast<size_t>(attrs_[i])];
    }
    groups_.Merge(codec_.EncodePrefix(scratch_), state);
  }

  GroupedResult Finish() const {
    GroupedResult out;
    out.group_attrs = attrs_;
    const size_t width = attrs_.size();
    out.keys = ResultKeys(width, groups_.size());
    out.sums.reserve(groups_.size());
    out.aggregates.reserve(groups_.size());
    size_t row = 0;
    groups_.Emit([&](uint64_t key, const AggregateState& state) {
      uint32_t* values = out.keys.mutable_row(row++);
      for (size_t i = 0; i < width; ++i) {
        values[i] = codec_.Decode(key, static_cast<int>(i));
      }
      out.sums.push_back(state.sum);
      out.aggregates.push_back(state);
    });
    return out;
  }

 private:
  std::vector<int> attrs_;
  KeyCodec codec_;
  GroupTable groups_;
  std::vector<uint32_t> scratch_;
};

}  // namespace olapidx

#endif  // OLAPIDX_ENGINE_GROUP_ACCUMULATOR_H_
