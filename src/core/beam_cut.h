// The per-stage beam cut shared by the eager greedy cores (r_greedy.cc,
// inner_greedy.cc): of the dirty views with a certified stale bound, keep
// the beam_width with the largest bounds and defer the rest.

#ifndef OLAPIDX_CORE_BEAM_CUT_H_
#define OLAPIDX_CORE_BEAM_CUT_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace olapidx {

// Partitions `views` under the strict total order (bound descending, view
// id ascending): when more than beam_width views are given, the first
// beam_width become the ones a full sort would put first, in no particular
// order, and views[beam_width] becomes the best of the rest — the deferred
// view with the largest bound. A selection, O(n) where a sort is
// O(n log n): the kept set and that boundary view are the sort's, only the
// order inside each part differs. Fewer views are left as they are.
template <typename BoundOf>
void CutBeam(std::vector<uint32_t>& views, size_t beam_width,
             const BoundOf& bound_of) {
  if (views.size() <= beam_width) return;
  std::nth_element(views.begin(),
                   views.begin() + static_cast<std::ptrdiff_t>(beam_width),
                   views.end(), [&](uint32_t a, uint32_t b) {
                     const double ba = bound_of(a);
                     const double bb = bound_of(b);
                     if (ba != bb) return ba > bb;
                     return a < b;
                   });
}

}  // namespace olapidx

#endif  // OLAPIDX_CORE_BEAM_CUT_H_
