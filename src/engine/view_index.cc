#include "engine/view_index.h"

#include <utility>

namespace olapidx {

ViewIndex::ViewIndex(const MaterializedView& view, IndexKey key, int fanout)
    : key_(std::move(key)),
      codec_(view.schema(), key_.ToVector()),
      tree_(fanout) {
  OLAPIDX_CHECK(!key_.empty());
  OLAPIDX_CHECK(key_.AsSet().IsSubsetOf(view.attrs()));
  // Rows enter in ascending order, so the stable sort by key leaves the
  // entries in (key, row) order.
  std::vector<KeyRow> entries(view.num_rows());
  for (size_t r = 0; r < view.num_rows(); ++r) {
    entries[r] = KeyRow{view.KeyAt(codec_, r), static_cast<uint32_t>(r)};
  }
  RadixSortByKey(entries);
  tree_.BulkLoad(entries);
}

void ViewIndex::Rekey(const MaterializedView& view,
                      const std::vector<uint32_t>& inserted_rows) {
  const size_t old_rows = tree_.size();
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
  std::vector<KeyRow> entries;
  entries.reserve(old_rows + added.size());
  auto next = added.begin();
  tree_.ForEach([&](uint64_t key, uint32_t row) {
    const KeyRow entry{key, moved[row]};
    for (; next != added.end() && before(*next, entry); ++next) {
      entries.push_back(*next);
    }
    entries.push_back(entry);
  });
  entries.insert(entries.end(), next, added.end());
  tree_ = BPlusTree(tree_.fanout());
  tree_.BulkLoad(entries);
}

}  // namespace olapidx
