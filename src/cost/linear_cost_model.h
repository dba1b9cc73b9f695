// The linear cost model of Section 4: the cost of answering a slice query is
// the number of rows of the chosen view that must be processed,
//
//     c(Q, V, J) = |C| / |E|
//
// where C = attrs(V), J = I_D(V), and E is the longest prefix of D composed
// only of selection attributes of Q (|∅| = 1, i.e. a useless or absent index
// degrades to a full scan of V). Index sizes equal view sizes (Section
// 4.2.2), which is what makes only fat indexes worth considering.

#ifndef OLAPIDX_COST_LINEAR_COST_MODEL_H_
#define OLAPIDX_COST_LINEAR_COST_MODEL_H_

#include "cost/view_sizes.h"
#include "lattice/index_key.h"
#include "workload/slice_query.h"

namespace olapidx {

class LinearCostModel {
 public:
  explicit LinearCostModel(const ViewSizes* sizes) : sizes_(sizes) {
    OLAPIDX_CHECK(sizes != nullptr);
  }

  const ViewSizes& sizes() const { return *sizes_; }

  // Cost of answering `query` from the view with attributes `view_attrs`
  // using index `key` (pass IndexKey() for a plain scan). The query must be
  // answerable from the view, and the index key must use only view
  // attributes.
  double QueryCost(const SliceQuery& query, AttributeSet view_attrs,
                   const IndexKey& key) const {
    OLAPIDX_CHECK(query.AnswerableFrom(view_attrs));
    OLAPIDX_CHECK(key.AsSet().IsSubsetOf(view_attrs));
    AttributeSet prefix = key.LongestSelectionPrefix(query.selection());
    return sizes_->SizeOf(view_attrs) / sizes_->SizeOf(prefix);
  }

  // Cost shared by every index of the view whose maximal selection-only
  // key prefix is the set `prefix` — QueryCost factored through the
  // observation that c(Q,V,J) = |C|/|E| depends only on E, not on the key
  // order. The fast graph builder evaluates this once per prefix
  // equivalence class instead of once per permutation.
  double PrefixClassCost(AttributeSet view_attrs, AttributeSet prefix) const {
    OLAPIDX_DCHECK(prefix.IsSubsetOf(view_attrs));
    return sizes_->SizeOf(view_attrs) / sizes_->SizeOf(prefix);
  }

  // Scan cost (no index): |V|.
  double ScanCost(AttributeSet view_attrs) const {
    return sizes_->SizeOf(view_attrs);
  }

  // Space occupied by the view itself.
  double ViewSpace(AttributeSet view_attrs) const {
    return sizes_->SizeOf(view_attrs);
  }

  // Space occupied by any index on the view: same as the view (an index
  // holds one entry per view row, the paper's B-tree leaf entries).
  double IndexSpace(AttributeSet view_attrs) const {
    return sizes_->SizeOf(view_attrs);
  }

 private:
  const ViewSizes* sizes_;
};

}  // namespace olapidx

#endif  // OLAPIDX_COST_LINEAR_COST_MODEL_H_
