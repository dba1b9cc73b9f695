#include "engine/materialized_view.h"

#include <cstddef>

#include "engine/group_table.h"
#include "engine/key_codec.h"

namespace olapidx {

namespace {

// `old` with insertions: the j-th inserted element, `inserted(j)`, lands
// before old element `insert_at[j]` (ascending). The result has no spare
// capacity.
template <typename T, typename InsertedFn>
std::vector<T> MergeInserts(const std::vector<T>& old,
                            const std::vector<size_t>& insert_at,
                            InsertedFn&& inserted) {
  std::vector<T> grown;
  grown.reserve(old.size() + insert_at.size());
  auto from = old.begin();
  for (size_t j = 0; j < insert_at.size(); ++j) {
    auto upto = old.begin() + static_cast<ptrdiff_t>(insert_at[j]);
    grown.insert(grown.end(), from, upto);
    grown.push_back(inserted(j));
    from = upto;
  }
  grown.insert(grown.end(), from, old.end());
  return grown;
}

}  // namespace

MaterializedView::MaterializedView(const CubeSchema& schema,
                                   AttributeSet attrs)
    : schema_(schema), attrs_(attrs) {
  attr_list_ = attrs.ToVector();
  column_of_.assign(static_cast<size_t>(schema.num_dimensions()), -1);
  for (size_t i = 0; i < attr_list_.size(); ++i) {
    column_of_[static_cast<size_t>(attr_list_[i])] = static_cast<int>(i);
  }
  columns_.resize(attr_list_.size());
}

template <typename DimFn, typename StateFn>
void MaterializedView::Aggregate(size_t rows, DimFn&& dim_of,
                                 StateFn&& state_of) {
  const KeyCodec codec(schema_, attr_list_);
  const auto key_of = [&](size_t r) {
    uint64_t key = 0;
    for (size_t i = 0; i < attr_list_.size(); ++i) {
      key |= codec.Encode(static_cast<int>(i), dim_of(r, attr_list_[i]));
    }
    return key;
  };
  const auto size = [&](size_t groups) {
    for (auto& col : columns_) col.reserve(groups);
    states_.reserve(groups);
  };
  const auto append = [&](uint64_t key, const AggregateState& state) {
    for (size_t i = 0; i < attr_list_.size(); ++i) {
      columns_[i].push_back(codec.Decode(key, static_cast<int>(i)));
    }
    states_.push_back(state);
  };
  if (SortsGroups(schema_.DomainSize(attrs_), static_cast<double>(rows))) {
    std::vector<KeyRow> sorted(rows);
    for (size_t r = 0; r < rows; ++r) {
      sorted[r] = KeyRow{key_of(r), static_cast<uint32_t>(r)};
    }
    RadixSortByKey(sorted);
    size(CountSortedKeys(sorted));
    FoldSortedRuns(sorted, state_of, append);
    return;
  }
  GroupTable groups;
  for (size_t r = 0; r < rows; ++r) groups.Merge(key_of(r), state_of(r));
  size(groups.size());
  groups.Emit(append);
}

MaterializedView MaterializedView::FromFactTable(const FactTable& fact,
                                                 AttributeSet attrs) {
  MaterializedView view(fact.schema(), attrs);
  view.Aggregate(
      fact.num_rows(), [&](size_t r, int a) { return fact.dim(r, a); },
      [&](size_t r) {
        return AggregateState::OfMeasure(fact.measure(r));
      });
  return view;
}

MaterializedView MaterializedView::FromView(const MaterializedView& parent,
                                            AttributeSet attrs) {
  OLAPIDX_CHECK(attrs.IsSubsetOf(parent.attrs()));
  MaterializedView view(parent.schema_, attrs);  // copies the schema
  view.Aggregate(
      parent.num_rows(), [&](size_t r, int a) { return parent.dim(r, a); },
      [&](size_t r) { return parent.states_[r]; });
  return view;
}

std::vector<uint32_t> MaterializedView::RowKey(size_t row) const {
  std::vector<uint32_t> key(attr_list_.size());
  for (size_t i = 0; i < attr_list_.size(); ++i) key[i] = columns_[i][row];
  return key;
}

uint64_t MaterializedView::KeyAt(const KeyCodec& codec, size_t row) const {
  uint64_t key = 0;
  for (int i = 0; i < codec.num_attrs(); ++i) {
    key |= codec.Encode(
        i, dim(row, codec.attr_order()[static_cast<size_t>(i)]));
  }
  return key;
}

MaterializedView::DeltaResult MaterializedView::ApplyDelta(
    const FactTable& fact, size_t begin_row, size_t end_row) {
  OLAPIDX_CHECK(begin_row <= end_row);
  OLAPIDX_CHECK(end_row <= fact.num_rows());
  // The delta's groups, aggregated in fact-row order and sorted by key.
  MaterializedView delta(schema_, attrs_);
  delta.Aggregate(
      end_row - begin_row,
      [&](size_t r, int a) { return fact.dim(begin_row + r, a); },
      [&](size_t r) {
        return AggregateState::OfMeasure(fact.measure(begin_row + r));
      });

  // Locate each delta group among the sorted rows. Keys ascend, so each
  // search starts where the previous one stopped.
  const KeyCodec codec(schema_, attr_list_);
  std::vector<size_t> insert_at;   // per new group: rows before it
  std::vector<size_t> new_groups;  // per new group: its row in `delta`
  size_t lo = 0;
  for (size_t g = 0; g < delta.num_rows(); ++g) {
    const uint64_t key = delta.KeyAt(codec, g);
    size_t hi = num_rows();
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (KeyAt(codec, mid) < key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo < num_rows() && KeyAt(codec, lo) == key) {
      states_[lo].Merge(delta.states_[g]);
    } else {
      insert_at.push_back(lo);
      new_groups.push_back(g);
    }
  }

  // Merge the new groups into the sorted rows.
  DeltaResult result;
  result.groups_touched = delta.num_rows();
  if (new_groups.empty()) return result;
  for (size_t i = 0; i < columns_.size(); ++i) {
    columns_[i] = MergeInserts(columns_[i], insert_at, [&](size_t j) {
      return delta.columns_[i][new_groups[j]];
    });
  }
  states_ = MergeInserts(states_, insert_at, [&](size_t j) {
    return delta.states_[new_groups[j]];
  });
  result.inserted_rows.resize(new_groups.size());
  for (size_t j = 0; j < new_groups.size(); ++j) {
    result.inserted_rows[j] = static_cast<uint32_t>(insert_at[j] + j);
  }
  return result;
}

}  // namespace olapidx
