// AttributeSet: a set of cube dimensions, represented as a bitmask.
//
// The paper denotes views (subcubes) by their group-by attribute sets and
// queries by a (group-by set, selection set) pair; this type is the common
// currency for all of them. Attribute ids are dense indexes 0..n-1 into a
// CubeSchema.

#ifndef OLAPIDX_LATTICE_ATTRIBUTE_SET_H_
#define OLAPIDX_LATTICE_ATTRIBUTE_SET_H_

#include <bit>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/check.h"

namespace olapidx {

// Maximum number of cube dimensions supported by the bitmask representation.
inline constexpr int kMaxDimensions = 20;

class AttributeSet {
 public:
  // The empty set (the apex view "none" in the paper, which has one row).
  constexpr AttributeSet() : mask_(0) {}

  // Constructs directly from a bitmask (bit i set <=> attribute i present).
  static constexpr AttributeSet FromMask(uint32_t mask) {
    return AttributeSet(mask);
  }

  // Constructs from a list of attribute ids, e.g. AttributeSet::Of({0, 2}).
  static AttributeSet Of(std::initializer_list<int> attrs) {
    uint32_t mask = 0;
    for (int a : attrs) {
      OLAPIDX_CHECK(a >= 0 && a < kMaxDimensions);
      mask |= (1u << a);
    }
    return AttributeSet(mask);
  }

  // The full set {0, ..., n-1}.
  static constexpr AttributeSet Full(int n) {
    return AttributeSet((n >= 32) ? ~0u : ((1u << n) - 1u));
  }

  constexpr uint32_t mask() const { return mask_; }
  constexpr bool empty() const { return mask_ == 0; }
  int size() const { return std::popcount(mask_); }

  bool Contains(int attr) const { return (mask_ & (1u << attr)) != 0; }
  constexpr bool IsSubsetOf(AttributeSet other) const {
    return (mask_ & ~other.mask_) == 0;
  }
  constexpr bool IsSupersetOf(AttributeSet other) const {
    return other.IsSubsetOf(*this);
  }
  constexpr bool Intersects(AttributeSet other) const {
    return (mask_ & other.mask_) != 0;
  }

  constexpr AttributeSet Union(AttributeSet other) const {
    return AttributeSet(mask_ | other.mask_);
  }
  constexpr AttributeSet Intersect(AttributeSet other) const {
    return AttributeSet(mask_ & other.mask_);
  }
  constexpr AttributeSet Minus(AttributeSet other) const {
    return AttributeSet(mask_ & ~other.mask_);
  }

  AttributeSet With(int attr) const {
    OLAPIDX_DCHECK(attr >= 0 && attr < kMaxDimensions);
    return AttributeSet(mask_ | (1u << attr));
  }
  AttributeSet Without(int attr) const {
    OLAPIDX_DCHECK(attr >= 0 && attr < kMaxDimensions);
    return AttributeSet(mask_ & ~(1u << attr));
  }

  // Attribute ids in ascending order.
  std::vector<int> ToVector() const {
    std::vector<int> out;
    out.reserve(static_cast<size_t>(size()));
    for (uint32_t m = mask_; m != 0; m &= m - 1) {
      out.push_back(std::countr_zero(m));
    }
    return out;
  }

  // Concatenated one-letter-per-attribute rendering using `names`
  // (e.g. "ps"); "none" for the empty set. Falls back to full names joined
  // by ',' when any name is longer than one character.
  std::string ToString(const std::vector<std::string>& names) const;
  // ToString's rendering, appended to `out`.
  void AppendTo(const std::vector<std::string>& names, std::string& out) const;

  friend constexpr bool operator==(AttributeSet a, AttributeSet b) {
    return a.mask_ == b.mask_;
  }
  friend constexpr bool operator!=(AttributeSet a, AttributeSet b) {
    return a.mask_ != b.mask_;
  }
  friend constexpr bool operator<(AttributeSet a, AttributeSet b) {
    return a.mask_ < b.mask_;
  }

  // Range over every subset of this set (including the empty set and the
  // set itself), in ascending mask order. Defined after SubsetRange below.
  constexpr class SubsetRange Subsets() const;
  // Range over every superset of this set contained in `universe`, in
  // ascending mask order — exactly the lattice ViewId order, which is what
  // lets graph construction visit only the views that can answer a query.
  // Requires IsSubsetOf(universe).
  constexpr class SupersetRange SupersetsWithin(AttributeSet universe) const;

 private:
  explicit constexpr AttributeSet(uint32_t mask) : mask_(mask) {}

  uint32_t mask_;
};

// Ascending submask walk: from s, the next subset of m is (s - m) & m —
// subtracting m borrows through the cleared bits, so the result is the
// numerically next value whose bits all lie in m (wrapping to 0 past m).
class SubsetRange {
 public:
  class Iterator {
   public:
    constexpr Iterator(uint32_t cur, uint32_t mask, bool done)
        : cur_(cur), mask_(mask), done_(done) {}

    constexpr AttributeSet operator*() const {
      return AttributeSet::FromMask(cur_);
    }
    constexpr Iterator& operator++() {
      if (cur_ == mask_) {
        done_ = true;
        cur_ = 0;  // canonical past-the-end state, so == end() holds
      } else {
        cur_ = (cur_ - mask_) & mask_;
      }
      return *this;
    }
    friend constexpr bool operator!=(const Iterator& a, const Iterator& b) {
      return a.done_ != b.done_ || a.cur_ != b.cur_;
    }
    friend constexpr bool operator==(const Iterator& a, const Iterator& b) {
      return !(a != b);
    }

   private:
    uint32_t cur_;
    uint32_t mask_;
    bool done_;
  };

  explicit constexpr SubsetRange(AttributeSet set) : mask_(set.mask()) {}

  constexpr Iterator begin() const { return Iterator(0, mask_, false); }
  constexpr Iterator end() const { return Iterator(0, mask_, true); }

 private:
  uint32_t mask_;
};

// Supersets of `set` within `universe` are set ∪ x for x ⊆ universe \ set;
// since the free bits are disjoint from `set`, walking x ascending (the
// same submask trick) yields the supersets in ascending mask order.
class SupersetRange {
 public:
  class Iterator {
   public:
    constexpr Iterator(uint32_t extra, uint32_t base, uint32_t free,
                       bool done)
        : extra_(extra), base_(base), free_(free), done_(done) {}

    constexpr AttributeSet operator*() const {
      return AttributeSet::FromMask(base_ | extra_);
    }
    constexpr Iterator& operator++() {
      if (extra_ == free_) {
        done_ = true;
        extra_ = 0;  // canonical past-the-end state, so == end() holds
      } else {
        extra_ = (extra_ - free_) & free_;
      }
      return *this;
    }
    friend constexpr bool operator!=(const Iterator& a, const Iterator& b) {
      return a.done_ != b.done_ || a.extra_ != b.extra_;
    }
    friend constexpr bool operator==(const Iterator& a, const Iterator& b) {
      return !(a != b);
    }

   private:
    uint32_t extra_;
    uint32_t base_;
    uint32_t free_;
    bool done_;
  };

  constexpr SupersetRange(AttributeSet set, AttributeSet universe)
      : base_(set.mask()), free_(universe.Minus(set).mask()) {}

  constexpr Iterator begin() const {
    return Iterator(0, base_, free_, false);
  }
  constexpr Iterator end() const { return Iterator(0, base_, free_, true); }

 private:
  uint32_t base_;
  uint32_t free_;
};

constexpr SubsetRange AttributeSet::Subsets() const {
  return SubsetRange(*this);
}

constexpr SupersetRange AttributeSet::SupersetsWithin(
    AttributeSet universe) const {
  OLAPIDX_DCHECK(IsSubsetOf(universe));
  return SupersetRange(*this, universe);
}

}  // namespace olapidx

#endif  // OLAPIDX_LATTICE_ATTRIBUTE_SET_H_
