// ViewIndex: a B+tree index over a materialized view, keyed by an ordered
// attribute permutation (or subsequence) — the physical realization of the
// paper's I_{X1..Xk}(V) structures. Supports prefix scans: all view rows
// whose first t key attributes equal the given values. Entries are sorted
// by (key, row id): a bulk load feeds (key, row) pairs in ascending row
// order to the stable RadixSortByKey (key_sort.h), which leaves equal keys
// in row order. After a refresh the index is re-keyed in one linear merge
// rather than rebuilt.

#ifndef OLAPIDX_ENGINE_VIEW_INDEX_H_
#define OLAPIDX_ENGINE_VIEW_INDEX_H_

#include <cstdint>
#include <vector>

#include "engine/btree.h"
#include "engine/key_codec.h"
#include "engine/materialized_view.h"
#include "lattice/index_key.h"

namespace olapidx {

class ViewIndex {
 public:
  // Builds the index over `view` (bulk-loaded). `key` attributes must be a
  // subset of the view's attributes.
  ViewIndex(const MaterializedView& view, IndexKey key, int fanout = 64);

  // Re-keys the index after `view` absorbed a delta
  // (MaterializedView::ApplyDelta reported `inserted_rows`): existing
  // entries keep their keys and their row ids shift past the inserted
  // rows, whose entries are merged in. O(entries + d log d) for d inserted
  // rows; yields the same tree as ViewIndex(view, key(), fanout).
  void Rekey(const MaterializedView& view,
             const std::vector<uint32_t>& inserted_rows);

  const IndexKey& key() const { return key_; }
  size_t num_entries() const { return tree_.size(); }
  const BPlusTree& tree() const { return tree_; }

  // Invokes `fn(row_id)` for every view row whose first
  // `prefix_values.size()` key attributes equal `prefix_values` (given in
  // key order). Returns the number of rows visited.
  template <typename Fn>
  size_t ScanPrefix(const std::vector<uint32_t>& prefix_values,
                    Fn&& fn) const {
    auto [lo, hi] = codec_.PrefixRange(prefix_values);
    return tree_.ScanRange(lo, hi,
                           [&](uint64_t key, uint32_t row) {
                             (void)key;
                             fn(row);
                           });
  }

  // Like ScanPrefix, but the key position after the point-valued prefix
  // ranges over [range_lo, range_hi] (inclusive) — one contiguous B-tree
  // range. Used for hierarchical selections at coarser levels, whose
  // child codes form contiguous blocks under clustered encodings.
  template <typename Fn>
  size_t ScanPrefixRange(const std::vector<uint32_t>& point_values,
                         uint32_t range_lo, uint32_t range_hi,
                         Fn&& fn) const {
    OLAPIDX_CHECK(static_cast<int>(point_values.size()) < key_.size());
    std::vector<uint32_t> lo_vals = point_values;
    lo_vals.push_back(range_lo);
    std::vector<uint32_t> hi_vals = point_values;
    hi_vals.push_back(range_hi);
    uint64_t lo = codec_.PrefixRange(lo_vals).first;
    uint64_t hi = codec_.PrefixRange(hi_vals).second;
    return tree_.ScanRange(lo, hi,
                           [&](uint64_t key, uint32_t row) {
                             (void)key;
                             fn(row);
                           });
  }

 private:
  IndexKey key_;
  KeyCodec codec_;
  BPlusTree tree_;
};

}  // namespace olapidx

#endif  // OLAPIDX_ENGINE_VIEW_INDEX_H_
