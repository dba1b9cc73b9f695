#include "workload/slice_query.h"

namespace olapidx {

std::string SliceQuery::ToString(
    const std::vector<std::string>& names) const {
  std::string out = "g{";
  group_by_.AppendTo(names, out);
  out += '}';
  if (!selection_.empty()) {
    out += "s{";
    selection_.AppendTo(names, out);
    out += '}';
  }
  return out;
}

}  // namespace olapidx
