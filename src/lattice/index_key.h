// IndexKey: the search key of an index (the paper's B-tree index; the
// engine stores its entries sorted, engine/view_index.h) — an *ordered*
// sequence of distinct attributes. Order matters (Section 3.3 of the
// paper): the index I_{X1..Xk}(V) helps a slice query exactly on the
// longest prefix of X1..Xk consisting only of the query's selection
// attributes.
//
// A key is a plain value: its at most kMaxDimensions attribute ids live
// inline, so building, copying or freeing one allocates nothing.

#ifndef OLAPIDX_LATTICE_INDEX_KEY_H_
#define OLAPIDX_LATTICE_INDEX_KEY_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "lattice/attribute_set.h"

namespace olapidx {

class IndexKey {
 public:
  // The empty key, denoting "no index" (D = empty sequence in the paper).
  IndexKey() = default;

  // `attrs` must be distinct attribute ids in search-key order.
  explicit IndexKey(std::span<const int> attrs);
  explicit IndexKey(std::initializer_list<int> attrs)
      : IndexKey(std::span<const int>(attrs.begin(), attrs.size())) {}

  std::span<const uint8_t> attrs() const {
    return std::span<const uint8_t>(attrs_.data(), size_);
  }
  // The attributes as ids, for callers that own an attribute order.
  std::vector<int> ToVector() const {
    return std::vector<int>(attrs().begin(), attrs().end());
  }
  bool empty() const { return size_ == 0; }
  int size() const { return size_; }

  // The (unordered) set of key attributes.
  AttributeSet AsSet() const;

  // The longest prefix of this key composed only of attributes in
  // `selection` — the set E in the paper's cost formula c(Q,V,J) = |C|/|E|.
  AttributeSet LongestSelectionPrefix(AttributeSet selection) const;

  // True iff `other`'s attribute sequence is a proper prefix of this key's.
  // Under the paper's index-size model such an `other` is dominated by this
  // key (Section 4.2.2), which is what justifies fat-index pruning.
  bool HasProperPrefix(const IndexKey& other) const;

  // "I_sp" style rendering given per-attribute names.
  std::string ToString(const std::vector<std::string>& names) const;

  // Lexicographic over the attribute sequences: a proper prefix sorts
  // first.
  friend bool operator==(const IndexKey& a, const IndexKey& b) {
    return std::ranges::equal(a.attrs(), b.attrs());
  }
  friend bool operator<(const IndexKey& a, const IndexKey& b) {
    return std::ranges::lexicographical_compare(a.attrs(), b.attrs());
  }

 private:
  std::array<uint8_t, kMaxDimensions> attrs_{};
  uint8_t size_ = 0;
};

}  // namespace olapidx

#endif  // OLAPIDX_LATTICE_INDEX_KEY_H_
