#include "lattice/attribute_set.h"

#include <bit>
#include <string>
#include <vector>

namespace olapidx {

std::string AttributeSet::ToString(
    const std::vector<std::string>& names) const {
  std::string out;
  AppendTo(names, out);
  return out;
}

void AttributeSet::AppendTo(const std::vector<std::string>& names,
                            std::string& out) const {
  if (empty()) {
    out += "none";
    return;
  }
  bool all_single = true;
  for (uint32_t m = mask_; m != 0; m &= m - 1) {
    const int a = std::countr_zero(m);
    OLAPIDX_CHECK(a < static_cast<int>(names.size()));
    if (names[static_cast<size_t>(a)].size() != 1) all_single = false;
  }
  for (uint32_t m = mask_; m != 0; m &= m - 1) {
    if (!all_single && m != mask_) out += ',';
    out += names[static_cast<size_t>(std::countr_zero(m))];
  }
}

}  // namespace olapidx
