#include "lattice/index_key.h"

namespace olapidx {

IndexKey::IndexKey(std::span<const int> attrs) {
  AttributeSet seen;
  for (int a : attrs) {
    OLAPIDX_CHECK(a >= 0 && a < kMaxDimensions);
    OLAPIDX_CHECK(!seen.Contains(a));  // Key attributes must be distinct.
    seen = seen.With(a);
    attrs_[size_++] = static_cast<uint8_t>(a);
  }
}

AttributeSet IndexKey::AsSet() const {
  AttributeSet s;
  for (int a : attrs()) s = s.With(a);
  return s;
}

AttributeSet IndexKey::LongestSelectionPrefix(AttributeSet selection) const {
  AttributeSet prefix;
  for (int a : attrs()) {
    if (!selection.Contains(a)) break;
    prefix = prefix.With(a);
  }
  return prefix;
}

bool IndexKey::HasProperPrefix(const IndexKey& other) const {
  return other.size_ < size_ &&
         std::ranges::equal(other.attrs(), attrs().first(other.size_));
}

std::string IndexKey::ToString(const std::vector<std::string>& names) const {
  std::string out = "I_";
  if (empty()) return out + "none";
  for (int a : attrs()) {
    OLAPIDX_CHECK(a < static_cast<int>(names.size()));
    out += names[static_cast<size_t>(a)];
  }
  return out;
}

}  // namespace olapidx
