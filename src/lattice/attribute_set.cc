#include "lattice/attribute_set.h"

namespace olapidx {

std::string AttributeSet::ToString(
    const std::vector<std::string>& names) const {
  if (empty()) return "none";
  // Sized in a first pass, so the name is built with one allocation.
  size_t length = 0;
  bool all_single = true;
  for (uint32_t m = mask_; m != 0; m &= m - 1) {
    const int a = std::countr_zero(m);
    OLAPIDX_CHECK(a < static_cast<int>(names.size()));
    const size_t name_size = names[static_cast<size_t>(a)].size();
    length += name_size;
    if (name_size != 1) all_single = false;
  }
  if (!all_single) length += static_cast<size_t>(size()) - 1;  // commas
  std::string out;
  out.reserve(length);
  for (uint32_t m = mask_; m != 0; m &= m - 1) {
    if (!all_single && m != mask_) out += ',';
    out += names[static_cast<size_t>(std::countr_zero(m))];
  }
  return out;
}

}  // namespace olapidx
