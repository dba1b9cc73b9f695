#include "lattice/cube_lattice.h"

#include <algorithm>
#include <array>
#include <bit>
#include <span>

namespace olapidx {

namespace {

// Appends every ordered arrangement of exactly `r` elements of `attrs`.
void AppendArrangements(const std::vector<int>& attrs, int r,
                        std::vector<IndexKey>& out) {
  std::vector<bool> used(attrs.size(), false);
  std::vector<int> choice;
  choice.reserve(static_cast<size_t>(r));
  // Depth-first enumeration of r-arrangements.
  auto rec = [&](auto&& self, int depth) -> void {
    if (depth == r) {
      out.emplace_back(choice);
      return;
    }
    for (size_t i = 0; i < attrs.size(); ++i) {
      if (used[i]) continue;
      used[i] = true;
      choice.push_back(attrs[i]);
      self(self, depth + 1);
      choice.pop_back();
      used[i] = false;
    }
  };
  rec(rec, 0);
}

}  // namespace

CubeLattice::CubeLattice(const CubeSchema& schema)
    : n_(schema.num_dimensions()) {
  OLAPIDX_CHECK(n_ >= 1 && n_ <= kMaxDimensions);
}

std::vector<ViewId> CubeLattice::ImmediateChildren(ViewId v) const {
  std::vector<ViewId> out;
  AttributeSet attrs = AttrsOf(v);
  for (int a : attrs.ToVector()) out.push_back(ViewOf(attrs.Without(a)));
  return out;
}

std::vector<ViewId> CubeLattice::ImmediateParents(ViewId v) const {
  std::vector<ViewId> out;
  AttributeSet attrs = AttrsOf(v);
  for (int a = 0; a < n_; ++a) {
    if (!attrs.Contains(a)) out.push_back(ViewOf(attrs.With(a)));
  }
  return out;
}

std::vector<IndexKey> CubeLattice::FatIndexes(ViewId v) const {
  std::vector<IndexKey> out;
  out.reserve(NumFatIndexes(AttrsOf(v).size()));
  AppendFatIndexes(v, out);
  return out;
}

void CubeLattice::AppendFatIndexes(ViewId v, std::vector<IndexKey>& out) const {
  const AttributeSet attrs = AttrsOf(v);
  OLAPIDX_CHECK(attrs.size() <= 8);
  // Ascending, the first permutation in lexicographic order.
  std::array<int, 8> perm{};
  int m = 0;
  for (uint32_t rest = attrs.mask(); rest != 0; rest &= rest - 1) {
    perm[static_cast<size_t>(m++)] = std::countr_zero(rest);
  }
  if (m == 0) return;
  const std::span<const int> key(perm.data(), static_cast<size_t>(m));
  do {
    out.emplace_back(key);
  } while (std::next_permutation(perm.begin(), perm.begin() + m));
}

std::vector<IndexKey> CubeLattice::AllIndexes(ViewId v) const {
  std::vector<IndexKey> out;
  AppendAllIndexes(v, out);
  return out;
}

void CubeLattice::AppendAllIndexes(ViewId v, std::vector<IndexKey>& out) const {
  AttributeSet attrs = AttrsOf(v);
  OLAPIDX_CHECK(attrs.size() <= 6);
  std::vector<int> elems = attrs.ToVector();
  for (int r = 1; r <= static_cast<int>(elems.size()); ++r) {
    AppendArrangements(elems, r, out);
  }
}

uint64_t CubeLattice::NumFatIndexes(int m) {
  OLAPIDX_CHECK(m >= 0 && m <= 20);
  uint64_t f = 1;
  for (int i = 2; i <= m; ++i) f *= static_cast<uint64_t>(i);
  return m == 0 ? 0 : f;
}

uint64_t CubeLattice::NumAllIndexes(int m) {
  // sum_{r=1..m} m!/(m-r)!  (falling factorials).
  uint64_t total = 0;
  for (int r = 1; r <= m; ++r) {
    uint64_t arr = 1;
    for (int i = 0; i < r; ++i) arr *= static_cast<uint64_t>(m - i);
    total += arr;
  }
  return total;
}

uint64_t CubeLattice::TotalFatStructures(int n) {
  OLAPIDX_CHECK(n >= 0 && n <= 12);
  // sum over view sizes k of C(n,k) * (1 view + k! fat indexes).
  uint64_t total = 0;
  for (int k = 0; k <= n; ++k) {
    uint64_t choose = 1;
    for (int i = 0; i < k; ++i) {
      choose = choose * static_cast<uint64_t>(n - i) /
               static_cast<uint64_t>(i + 1);
    }
    total += choose * (1 + NumFatIndexes(k));
  }
  return total;
}

}  // namespace olapidx
