// ViewIndex: an index over a materialized view, keyed by an ordered
// attribute permutation (or subsequence) — the physical realization of the
// paper's I_{X1..Xk}(V) structures. Supports prefix scans: all view rows
// whose first t key attributes equal the given values.
//
// The index is its leaf entries and nothing else: two parallel arrays of
// packed keys and view row ids, sorted by (key, row id). A build feeds
// (key, row) pairs in ascending row order to the stable RadixSortByKey
// (key_sort.h), which leaves equal keys in row order. A probe is one
// binary search for its lowest key and a walk over the contiguous entries
// that match. After a refresh the index is re-keyed in one linear merge
// rather than rebuilt.

#ifndef OLAPIDX_ENGINE_VIEW_INDEX_H_
#define OLAPIDX_ENGINE_VIEW_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "engine/key_codec.h"
#include "engine/materialized_view.h"
#include "lattice/index_key.h"

namespace olapidx {

class ViewIndex {
 public:
  // Builds the index over `view`. `key` attributes must be a subset of the
  // view's attributes.
  ViewIndex(const MaterializedView& view, IndexKey key);

  // Re-keys the index after `view` absorbed a delta
  // (MaterializedView::ApplyDelta reported `inserted_rows`): existing
  // entries keep their keys and their row ids shift past the inserted
  // rows, whose entries are merged in. O(entries + d log d) for d inserted
  // rows; yields the same entries as ViewIndex(view, key()).
  void Rekey(const MaterializedView& view,
             const std::vector<uint32_t>& inserted_rows);

  const IndexKey& key() const { return key_; }
  size_t num_entries() const { return keys_.size(); }
  // The entries in (key, row) order: view row rows()[i] has packed key
  // keys()[i].
  std::span<const uint64_t> keys() const { return keys_; }
  std::span<const uint32_t> rows() const { return rows_; }

  // Invokes `fn(row_id)` for every view row whose first
  // `prefix_values.size()` key attributes equal `prefix_values` (given in
  // key order). Returns the number of rows visited.
  template <typename Fn>
  size_t ScanPrefix(const std::vector<uint32_t>& prefix_values,
                    Fn&& fn) const {
    auto [lo, hi] = codec_.PrefixRange(prefix_values);
    return ScanKeys(lo, hi, fn);
  }

  // Like ScanPrefix, but the key position after the point-valued prefix
  // ranges over [range_lo, range_hi] (inclusive) — one contiguous run of
  // entries. Used for hierarchical selections at coarser levels, whose
  // child codes form contiguous blocks under clustered encodings.
  template <typename Fn>
  size_t ScanPrefixRange(const std::vector<uint32_t>& point_values,
                         uint32_t range_lo, uint32_t range_hi,
                         Fn&& fn) const {
    OLAPIDX_CHECK(static_cast<int>(point_values.size()) < key_.size());
    std::vector<uint32_t> bound(point_values.size() + 1);
    std::copy(point_values.begin(), point_values.end(), bound.begin());
    bound.back() = range_lo;
    const uint64_t lo = codec_.PrefixRange(bound).first;
    bound.back() = range_hi;
    const uint64_t hi = codec_.PrefixRange(bound).second;
    return ScanKeys(lo, hi, fn);
  }

 private:
  // The first entry whose key is >= `lo`, by binary search. Counts the
  // search's bit_width(num_entries()) steps in `index.search_steps`.
  size_t Seek(uint64_t lo) const;

  // Invokes `fn(row_id)` for every entry with lo <= key <= hi, in (key,
  // row) order. Returns the number of entries visited.
  template <typename Fn>
  size_t ScanKeys(uint64_t lo, uint64_t hi, Fn& fn) const {
    const size_t begin = Seek(lo);
    size_t i = begin;
    for (; i < keys_.size() && keys_[i] <= hi; ++i) fn(rows_[i]);
    return i - begin;
  }

  IndexKey key_;
  KeyCodec codec_;
  std::vector<uint64_t> keys_;
  std::vector<uint32_t> rows_;
};

}  // namespace olapidx

#endif  // OLAPIDX_ENGINE_VIEW_INDEX_H_
