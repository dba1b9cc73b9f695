// CubeLattice: the lattice of the 2^n subcubes of an n-dimensional data cube
// under the dependence relation (Section 3.4), plus enumeration of the fat
// indexes (attribute permutations) of each view (Sections 3.3, 4.2.2).

#ifndef OLAPIDX_LATTICE_CUBE_LATTICE_H_
#define OLAPIDX_LATTICE_CUBE_LATTICE_H_

#include <cstdint>
#include <vector>

#include "lattice/attribute_set.h"
#include "lattice/index_key.h"
#include "lattice/schema.h"

namespace olapidx {

// A view (subcube) is identified by the bitmask of its group-by attributes;
// ids are therefore dense in [0, 2^n).
using ViewId = uint32_t;

class CubeLattice {
 public:
  explicit CubeLattice(const CubeSchema& schema);

  int num_dimensions() const { return n_; }
  uint32_t num_views() const { return 1u << n_; }

  ViewId ViewOf(AttributeSet attrs) const {
    OLAPIDX_DCHECK(attrs.IsSubsetOf(AttributeSet::Full(n_)));
    return attrs.mask();
  }
  AttributeSet AttrsOf(ViewId v) const {
    OLAPIDX_DCHECK(v < num_views());
    return AttributeSet::FromMask(v);
  }

  // The base view that groups by every dimension (the lattice's largest
  // element; for the raw TPC-D cube this is `psc`).
  ViewId BaseView() const { return num_views() - 1; }

  // Dependence relation: true iff `v1` can be computed from `v2`
  // (attrs(v1) ⊆ attrs(v2)). In the paper's notation, v1 ⪯ v2.
  bool DependsOn(ViewId v1, ViewId v2) const {
    return AttrsOf(v1).IsSubsetOf(AttrsOf(v2));
  }

  // Views whose attribute set is attrs(v) minus exactly one attribute.
  std::vector<ViewId> ImmediateChildren(ViewId v) const;
  // Views whose attribute set is attrs(v) plus exactly one attribute.
  std::vector<ViewId> ImmediateParents(ViewId v) const;

  // All fat indexes of `v`: one per permutation of attrs(v), in
  // lexicographic permutation order. Empty for the apex view.
  // Requires |attrs(v)| <= 8 (8! = 40320 permutations).
  std::vector<IndexKey> FatIndexes(ViewId v) const;

  // All indexes of `v`: one per non-empty ordered subset of attrs(v).
  // Used only by the fat-index-pruning ablation; requires |attrs(v)| <= 6.
  std::vector<IndexKey> AllIndexes(ViewId v) const;
  // The same families, appended to `out`.
  void AppendFatIndexes(ViewId v, std::vector<IndexKey>& out) const;
  void AppendAllIndexes(ViewId v, std::vector<IndexKey>& out) const;

  // Number of fat indexes of a view with m attributes (m!).
  static uint64_t NumFatIndexes(int m);
  // Number of all ordered-subset indexes of a view with m attributes
  // (sum over r>=1 of C(m,r)·r!).
  static uint64_t NumAllIndexes(int m);
  // Total structures (views + fat indexes) in an n-dimensional cube;
  // the "m" of the paper's running-time bounds.
  static uint64_t TotalFatStructures(int n);

 private:
  int n_;
};

}  // namespace olapidx

#endif  // OLAPIDX_LATTICE_CUBE_LATTICE_H_
