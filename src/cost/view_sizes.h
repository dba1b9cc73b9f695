// ViewSizes: row counts |V| for every view of a cube lattice — the only
// statistics the selection algorithms need (Section 4.2). Sizes may come
// from the analytical model, from sampling, or from exact materialization.

#ifndef OLAPIDX_COST_VIEW_SIZES_H_
#define OLAPIDX_COST_VIEW_SIZES_H_

#include <span>
#include <vector>

#include "lattice/cube_lattice.h"

namespace olapidx {

class ViewSizes {
 public:
  ViewSizes() = default;
  explicit ViewSizes(int num_dimensions)
      : n_(num_dimensions),
        sizes_(static_cast<size_t>(1) << num_dimensions, 0.0) {
    OLAPIDX_CHECK(num_dimensions >= 0 && num_dimensions <= kMaxDimensions);
    // The apex view "none" always has exactly one row (the grand total).
    sizes_[0] = 1.0;
  }

  int num_dimensions() const { return n_; }
  uint32_t num_views() const { return static_cast<uint32_t>(sizes_.size()); }

  double operator[](ViewId v) const {
    OLAPIDX_DCHECK(v < num_views());
    return sizes_[v];
  }
  double SizeOf(AttributeSet attrs) const { return (*this)[attrs.mask()]; }
  // Every view's size, indexed by attribute mask: read in place, never
  // copied.
  std::span<const double> by_mask() const { return sizes_; }

  void Set(AttributeSet attrs, double rows) {
    OLAPIDX_CHECK(attrs.mask() < num_views());
    OLAPIDX_CHECK(rows >= 1.0);
    sizes_[attrs.mask()] = rows;
  }

  // True once every view has been assigned a (>= 1) size.
  bool Complete() const {
    for (double s : sizes_) {
      if (s < 1.0) return false;
    }
    return true;
  }

  // Σ|V| over all views — the space needed to materialize every subcube.
  double TotalViewSpace() const;

  // Σ over views of |attrs(V)|! · |V| — the space needed to additionally
  // materialize every fat index (Example 2.1's "around 80M rows" number
  // includes both views and indexes).
  double TotalFatIndexSpace() const;

  // Monotonicity check: a view is never larger than any view it depends on
  // (|V1| <= |V2| whenever attrs(V1) ⊆ attrs(V2)). The analytical and exact
  // estimators guarantee this; sampled sizes may need repair.
  bool IsMonotone() const;

 private:
  int n_ = 0;
  std::vector<double> sizes_;
};

}  // namespace olapidx

#endif  // OLAPIDX_COST_VIEW_SIZES_H_
