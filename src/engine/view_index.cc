#include "engine/view_index.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/metrics.h"
#include "engine/key_sort.h"

namespace olapidx {

ViewIndex::ViewIndex(const MaterializedView& view, IndexKey key)
    : key_(std::move(key)), codec_(view.schema(), key_.ToVector()) {
  OLAPIDX_CHECK(!key_.empty());
  OLAPIDX_CHECK(key_.AsSet().IsSubsetOf(view.attrs()));
  // Rows enter in ascending order, so the stable sort by key leaves the
  // entries in (key, row) order.
  const size_t n = view.num_rows();
  std::vector<KeyRow> entries(n);
  for (size_t r = 0; r < n; ++r) {
    entries[r] = KeyRow{view.KeyAt(codec_, r), static_cast<uint32_t>(r)};
  }
  RadixSortByKey(entries);
  keys_.reserve(n);
  rows_.reserve(n);
  for (const KeyRow& entry : entries) {
    keys_.push_back(entry.key);
    rows_.push_back(entry.row);
  }
}

size_t ViewIndex::Seek(uint64_t lo) const {
  OLAPIDX_METRIC_COUNTER(steps, "index.search_steps");
  steps.Add(static_cast<uint64_t>(std::bit_width(keys_.size())));
  return static_cast<size_t>(
      std::lower_bound(keys_.begin(), keys_.end(), lo) - keys_.begin());
}

void ViewIndex::Rekey(const MaterializedView& view,
                      const std::vector<uint32_t>& inserted_rows) {
  const size_t old_rows = keys_.size();
  OLAPIDX_CHECK(old_rows + inserted_rows.size() == view.num_rows());
  // inserted_rows ascend, so the added entries sort into (key, row) order.
  std::vector<KeyRow> added;
  added.reserve(inserted_rows.size());
  for (uint32_t row : inserted_rows) {
    added.push_back(KeyRow{view.KeyAt(codec_, row), row});
  }
  RadixSortByKey(added);

  // Old row r moves past every inserted row placed before it: the j-th
  // inserted row (ascending) had inserted_rows[j] - j old rows before it.
  std::vector<uint32_t> moved(old_rows);
  size_t passed = 0;
  for (size_t r = 0; r < old_rows; ++r) {
    while (passed < inserted_rows.size() &&
           inserted_rows[passed] - passed <= r) {
      ++passed;
    }
    moved[r] = static_cast<uint32_t>(r + passed);
  }

  // The remap preserves row order, so the old entries stay sorted by
  // (key, row) and one merge with the added entries orders them all.
  const auto before = [](const KeyRow& a, const KeyRow& b) {
    return a.key < b.key || (a.key == b.key && a.row < b.row);
  };
  std::vector<uint64_t> keys;
  std::vector<uint32_t> rows;
  keys.reserve(view.num_rows());
  rows.reserve(view.num_rows());
  const auto append = [&](const KeyRow& entry) {
    keys.push_back(entry.key);
    rows.push_back(entry.row);
  };
  auto next = added.begin();
  for (size_t i = 0; i < old_rows; ++i) {
    const KeyRow entry{keys_[i], moved[rows_[i]]};
    for (; next != added.end() && before(*next, entry); ++next) append(*next);
    append(entry);
  }
  for (; next != added.end(); ++next) append(*next);
  keys_ = std::move(keys);
  rows_ = std::move(rows);
}

}  // namespace olapidx
