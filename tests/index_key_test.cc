#include "lattice/index_key.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/pruning_policy.h"

namespace olapidx {
namespace {

// Vector-based references for the key operations: the semantics IndexKey
// had when it stored a std::vector<int>.
AttributeSet RefAsSet(const std::vector<int>& key) {
  AttributeSet s;
  for (int a : key) s = s.With(a);
  return s;
}

AttributeSet RefLongestSelectionPrefix(const std::vector<int>& key,
                                       AttributeSet selection) {
  AttributeSet prefix;
  for (int a : key) {
    if (!selection.Contains(a)) break;
    prefix = prefix.With(a);
  }
  return prefix;
}

bool RefHasProperPrefix(const std::vector<int>& key,
                        const std::vector<int>& other) {
  return other.size() < key.size() &&
         std::equal(other.begin(), other.end(), key.begin());
}

std::string RefToString(const std::vector<int>& key,
                        const std::vector<std::string>& names) {
  if (key.empty()) return "I_none";
  std::string out = "I_";
  for (int a : key) out += names[static_cast<size_t>(a)];
  return out;
}

// The prefix-first candidate order: the prefix bits ascending, then the
// view's other bits ascending.
std::vector<int> RefCandidateKeyOrder(uint32_t prefix, uint32_t view_mask) {
  std::vector<int> order;
  for (int a = 0; a < kMaxDimensions; ++a) {
    if ((prefix >> a) & 1u) order.push_back(a);
  }
  for (int a = 0; a < kMaxDimensions; ++a) {
    if (((view_mask & ~prefix) >> a) & 1u) order.push_back(a);
  }
  return order;
}

// Random keys of mixed lengths, many of them prefixes or near-prefixes of
// each other, so the comparisons meet every case: a shorter key that is a
// prefix, one that is not, and equal keys.
std::vector<std::vector<int>> RandomKeys(size_t count, uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<std::vector<int>> keys;
  while (keys.size() < count) {
    std::vector<int> key;
    if (!keys.empty() && rng.NextBounded(2) == 0) {
      // Derived: an earlier key cut short, maybe extended by fresh ids.
      key = keys[rng.NextBounded(static_cast<uint32_t>(keys.size()))];
      key.resize(rng.NextBounded(static_cast<uint32_t>(key.size()) + 1));
      const uint32_t extra = rng.NextBounded(3);
      for (uint32_t i = 0; i < extra; ++i) {
        const int a = static_cast<int>(rng.NextBounded(kMaxDimensions));
        if (std::find(key.begin(), key.end(), a) == key.end()) {
          key.push_back(a);
        }
      }
    } else {
      std::vector<int> perm(kMaxDimensions);
      std::iota(perm.begin(), perm.end(), 0);
      for (size_t i = perm.size() - 1; i > 0; --i) {
        std::swap(perm[i], perm[rng.NextBounded(static_cast<uint32_t>(i) + 1)]);
      }
      perm.resize(rng.NextBounded(kMaxDimensions + 1));
      key = perm;
    }
    keys.push_back(std::move(key));
  }
  return keys;
}

TEST(IndexKeyTest, EmptyKeyIsNoIndex) {
  IndexKey key;
  EXPECT_TRUE(key.empty());
  EXPECT_EQ(key.size(), 0);
  EXPECT_TRUE(key.AsSet().empty());
  // With no index, the usable prefix is always empty (cost degrades to a
  // full scan in the cost model).
  EXPECT_TRUE(key.LongestSelectionPrefix(AttributeSet::Of({0, 1})).empty());
}

TEST(IndexKeyTest, AsSetIgnoresOrder) {
  EXPECT_EQ(IndexKey({2, 0}).AsSet(), AttributeSet::Of({0, 2}));
  EXPECT_EQ(IndexKey({0, 2}).AsSet(), AttributeSet::Of({0, 2}));
}

TEST(IndexKeyTest, LongestSelectionPrefixDependsOnOrder) {
  // Section 2's example: I_sp on view ps helps a query selecting on s,
  // but I_ps does not.
  IndexKey sp({1, 0});  // supplier, part
  IndexKey ps({0, 1});  // part, supplier
  AttributeSet select_s = AttributeSet::Of({1});
  EXPECT_EQ(sp.LongestSelectionPrefix(select_s), AttributeSet::Of({1}));
  EXPECT_TRUE(ps.LongestSelectionPrefix(select_s).empty());
}

TEST(IndexKeyTest, PrefixStopsAtFirstNonSelectionAttribute) {
  IndexKey key({3, 1, 2, 0});
  // Selection {3, 2}: prefix is just {3} because 1 interrupts.
  EXPECT_EQ(key.LongestSelectionPrefix(AttributeSet::Of({2, 3})),
            AttributeSet::Of({3}));
  // Selection {3, 1, 0}: prefix is {3, 1}; 2 interrupts before 0.
  EXPECT_EQ(key.LongestSelectionPrefix(AttributeSet::Of({0, 1, 3})),
            AttributeSet::Of({1, 3}));
  // Full selection: whole key.
  EXPECT_EQ(key.LongestSelectionPrefix(AttributeSet::Of({0, 1, 2, 3})),
            AttributeSet::Of({0, 1, 2, 3}));
}

TEST(IndexKeyTest, HasProperPrefix) {
  IndexKey scp({1, 2, 0});
  EXPECT_TRUE(scp.HasProperPrefix(IndexKey({1})));
  EXPECT_TRUE(scp.HasProperPrefix(IndexKey({1, 2})));
  EXPECT_FALSE(scp.HasProperPrefix(IndexKey({1, 2, 0})));  // not proper
  EXPECT_FALSE(scp.HasProperPrefix(IndexKey({2})));
  EXPECT_FALSE(IndexKey({1}).HasProperPrefix(scp));
}

TEST(IndexKeyTest, ToString) {
  std::vector<std::string> names = {"p", "s", "c"};
  EXPECT_EQ(IndexKey({1, 0}).ToString(names), "I_sp");
  EXPECT_EQ(IndexKey().ToString(names), "I_none");
}

TEST(IndexKeyTest, HoldsZeroOneNineteenAndTwentyAttributes) {
  std::vector<int> all(kMaxDimensions);
  std::iota(all.rbegin(), all.rend(), 0);  // 19, 18, ..., 0
  for (size_t len : {size_t{0}, size_t{1}, size_t{19}, size_t{20}}) {
    SCOPED_TRACE("length " + std::to_string(len));
    const std::vector<int> order(all.begin(),
                                 all.begin() + static_cast<ptrdiff_t>(len));
    const IndexKey key(order);
    EXPECT_EQ(key.size(), static_cast<int>(len));
    EXPECT_EQ(key.empty(), len == 0);
    EXPECT_EQ(key.ToVector(), order);
    ASSERT_EQ(key.attrs().size(), len);
    for (size_t i = 0; i < len; ++i) EXPECT_EQ(key.attrs()[i], order[i]);
    EXPECT_EQ(key.AsSet(), RefAsSet(order));
    const IndexKey copy = key;
    EXPECT_EQ(copy, key);
    EXPECT_FALSE(copy < key);
  }
}

TEST(IndexKeyTest, ComparisonsMatchVectorOrderOnMixedLengths) {
  const std::vector<std::vector<int>> vecs = RandomKeys(300, 17);
  std::vector<IndexKey> keys;
  for (const std::vector<int>& v : vecs) keys.emplace_back(v);
  size_t prefix_pairs = 0;
  for (size_t i = 0; i < vecs.size(); ++i) {
    for (size_t j = 0; j < vecs.size(); ++j) {
      ASSERT_EQ(keys[i] < keys[j], vecs[i] < vecs[j]) << i << " vs " << j;
      ASSERT_EQ(keys[i] == keys[j], vecs[i] == vecs[j]) << i << " vs " << j;
      if (RefHasProperPrefix(vecs[i], vecs[j])) ++prefix_pairs;
    }
  }
  EXPECT_GT(prefix_pairs, 100u);  // the derived keys make prefixes common
  // Sorting and deduplicating (as AppendCandidateFamily does) gives the
  // same sequence either way.
  std::vector<std::vector<int>> sorted_vecs = vecs;
  std::sort(sorted_vecs.begin(), sorted_vecs.end());
  sorted_vecs.erase(std::unique(sorted_vecs.begin(), sorted_vecs.end()),
                    sorted_vecs.end());
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  ASSERT_EQ(keys.size(), sorted_vecs.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(keys[i].ToVector(), sorted_vecs[i]) << "rank " << i;
  }
}

TEST(IndexKeyTest, OperationsMatchVectorReference) {
  std::vector<std::string> names;
  for (int a = 0; a < kMaxDimensions; ++a) {
    names.push_back(std::string(1, static_cast<char>('a' + a)));
  }
  const std::vector<std::vector<int>> vecs = RandomKeys(200, 29);
  Pcg32 rng(31);
  for (size_t i = 0; i < vecs.size(); ++i) {
    const IndexKey key(vecs[i]);
    EXPECT_EQ(key.AsSet(), RefAsSet(vecs[i])) << "key " << i;
    EXPECT_EQ(key.ToString(names), RefToString(vecs[i], names))
        << "key " << i;
    for (int draw = 0; draw < 8; ++draw) {
      // Selections over the key's own attributes hit long prefixes.
      const AttributeSet selection = AttributeSet::FromMask(
          rng.Next() & (draw < 4 ? key.AsSet().mask() : (1u << 20) - 1));
      EXPECT_EQ(key.LongestSelectionPrefix(selection),
                RefLongestSelectionPrefix(vecs[i], selection))
          << "key " << i << " selection " << selection.mask();
    }
    for (size_t j = 0; j < vecs.size(); ++j) {
      EXPECT_EQ(key.HasProperPrefix(IndexKey(vecs[j])),
                RefHasProperPrefix(vecs[i], vecs[j]))
          << i << " vs " << j;
    }
  }
}

TEST(IndexKeyTest, CandidateKeyIsPrefixFirst) {
  Pcg32 rng(41);
  for (int draw = 0; draw < 2000; ++draw) {
    const uint32_t view = rng.Next() & ((1u << kMaxDimensions) - 1);
    const uint32_t prefix = rng.Next() & view;
    EXPECT_EQ(CandidateKey(prefix, view).ToVector(),
              RefCandidateKeyOrder(prefix, view))
        << "prefix " << prefix << " view " << view;
  }
  const uint32_t full = (1u << kMaxDimensions) - 1;
  EXPECT_EQ(CandidateKey(full, full).size(), kMaxDimensions);
  EXPECT_EQ(CandidateKey(0, full).ToVector(), RefCandidateKeyOrder(0, full));
}

TEST(IndexKeyDeathTest, DuplicateAttributesRejected) {
  EXPECT_DEATH(IndexKey({0, 0}), "CHECK");
}

TEST(IndexKeyDeathTest, OutOfRangeAttributesRejected) {
  EXPECT_DEATH(IndexKey({kMaxDimensions}), "CHECK");
  EXPECT_DEATH(IndexKey({0, -1}), "CHECK");
}

}  // namespace
}  // namespace olapidx
