// GroupTable and GroupAccumulator against the aggregation they replaced:
// an std::unordered_map from packed key to AggregateState, merged in
// visit order, then sorted by key. Every state is compared by its bits.

#include "engine/group_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "engine/group_accumulator.h"
#include "engine/key_codec.h"

namespace olapidx {
namespace {

using Groups = std::vector<std::pair<uint64_t, AggregateState>>;

bool BitEq(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool StatesBitEq(const AggregateState& a, const AggregateState& b) {
  return BitEq(a.sum, b.sum) && a.count == b.count && BitEq(a.min, b.min) &&
         BitEq(a.max, b.max);
}

// The oracle: unordered_map + sort, as the engine aggregated before.
Groups OracleGroups(const Groups& input) {
  std::unordered_map<uint64_t, AggregateState> groups;
  for (const auto& [key, state] : input) groups[key].Merge(state);
  std::vector<uint64_t> keys;
  for (const auto& [key, state] : groups) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  Groups out;
  for (uint64_t key : keys) out.emplace_back(key, groups.at(key));
  return out;
}

Groups TableGroups(const Groups& input) {
  GroupTable table;
  for (const auto& [key, state] : input) table.Merge(key, state);
  Groups out;
  table.Emit([&](uint64_t key, const AggregateState& state) {
    out.emplace_back(key, state);
  });
  EXPECT_EQ(out.size(), table.size());
  return out;
}

void ExpectSameGroups(const Groups& actual, const Groups& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    ASSERT_EQ(actual[i].first, expected[i].first) << "group " << i;
    ASSERT_TRUE(StatesBitEq(actual[i].second, expected[i].second))
        << "group " << i << " key " << actual[i].first;
  }
}

// `rows` states with fractional measures over keys drawn by `key_of`.
template <typename KeyFn>
Groups RandomInput(size_t rows, uint64_t seed, KeyFn&& key_of) {
  Pcg32 rng(seed);
  Groups input;
  for (size_t r = 0; r < rows; ++r) {
    const uint64_t key = key_of(rng);
    const double measure =
        static_cast<double>(rng.NextBounded(1000000)) / 7.0 - 50000.0;
    input.emplace_back(key, AggregateState::OfMeasure(measure));
  }
  return input;
}

uint64_t Random64(Pcg32& rng) {
  return (static_cast<uint64_t>(rng.Next()) << 32) | rng.Next();
}

TEST(GroupTableTest, MatchesOracleAcrossSizes) {
  // Group counts on both sides of the std::sort / radix cutoff (2048).
  // Every group is seen twice, the first time out of key order.
  for (uint64_t groups : {0u, 1u, 7u, 2047u, 2048u, 2049u, 20000u}) {
    SCOPED_TRACE(::testing::Message() << groups << " groups");
    uint64_t row = 0;
    const Groups input = RandomInput(2 * groups, groups + 1, [&](Pcg32&) {
      return (row++ % groups) * 0x9E3779B97F4A7C15u % (uint64_t{1} << 40);
    });
    const Groups result = TableGroups(input);
    ASSERT_EQ(result.size(), groups);
    ExpectSameGroups(result, OracleGroups(input));
  }
}

TEST(GroupTableTest, KeysDifferingOnlyInHighBits) {
  // Keys i << 44: the low 44 bits are all zero, so only a hash that mixes
  // the high bits into the slot index spreads them.
  const Groups input = RandomInput(20000, 3, [](Pcg32& rng) {
    return static_cast<uint64_t>(rng.NextBounded(1u << 20)) << 44;
  });
  ExpectSameGroups(TableGroups(input), OracleGroups(input));
}

TEST(GroupTableTest, GrowsManyTimes) {
  // 16 initial slots held at most half full: 5000 groups take ten
  // doublings, each rehashing every group seen so far. Every key also
  // repeats after the growths, so merges find groups moved by a rehash.
  Groups input;
  for (int pass = 0; pass < 2; ++pass) {
    for (uint64_t k = 0; k < 5000; ++k) {
      input.emplace_back(k * 7919, AggregateState::OfMeasure(
                                       static_cast<double>(k) * 0.1 + pass));
    }
  }
  const Groups groups = TableGroups(input);
  ASSERT_EQ(groups.size(), 5000u);
  ExpectSameGroups(groups, OracleGroups(input));
}

TEST(GroupTableTest, SixtyFourBitKeys) {
  // Full-width keys: the top radix digit holds the sign-position bit.
  Pcg32 pool_rng(4);
  std::vector<uint64_t> pool(9000);
  for (uint64_t& key : pool) key = Random64(pool_rng);
  const Groups input = RandomInput(30000, 5, [&](Pcg32& rng) {
    return pool[rng.NextBounded(static_cast<uint32_t>(pool.size()))];
  });
  const Groups groups = TableGroups(input);
  ExpectSameGroups(groups, OracleGroups(input));
  EXPECT_TRUE(std::any_of(groups.begin(), groups.end(), [](const auto& g) {
    return (g.first >> 63) != 0;
  }));
}

TEST(GroupTableTest, ClearEmptiesTheTableForReuse) {
  // A cleared table holds no group, and a refill aggregates exactly as a
  // fresh table does: no slot of an earlier group survives to capture a
  // later key. Each fill replays the previous fill's rows backwards, so
  // the group seen last comes first and probes toward its old slot, then
  // adds fresh rows over fewer keys. The first fill grows the table many
  // times over; the refills reuse its slot array.
  GroupTable table;
  Groups previous;
  for (uint64_t fill = 0; fill < 4; ++fill) {
    SCOPED_TRACE(::testing::Message() << "fill " << fill);
    Groups input(previous.rbegin(), previous.rend());
    const uint64_t groups = fill == 0 ? 5000 : uint64_t{40} >> fill;
    const Groups fresh = RandomInput(3 * groups, fill + 11, [&](Pcg32& rng) {
      return (rng.NextBounded(static_cast<uint32_t>(groups)) + fill * 7) *
             0x9E3779B97F4A7C15u;
    });
    input.insert(input.end(), fresh.begin(), fresh.end());
    for (const auto& [key, state] : input) table.Merge(key, state);
    Groups out;
    table.Emit([&](uint64_t key, const AggregateState& state) {
      out.emplace_back(key, state);
    });
    ExpectSameGroups(out, OracleGroups(input));
    table.Clear();
    EXPECT_EQ(table.size(), 0u);
    size_t emitted = 0;
    table.Emit([&](uint64_t, const AggregateState&) { ++emitted; });
    EXPECT_EQ(emitted, 0u);
    previous = fresh;
  }
}

TEST(GroupTableTest, EmptyKeyIsOneGroup) {
  // Group-by ∅: every row lands in the key-0 group, and no rows means no
  // group at all.
  const Groups input = RandomInput(500, 9, [](Pcg32&) { return 0u; });
  const Groups groups = TableGroups(input);
  ASSERT_EQ(groups.size(), 1u);
  ExpectSameGroups(groups, OracleGroups(input));
  EXPECT_TRUE(TableGroups({}).empty());
}

TEST(GroupTableTest, NegativeZeroMeasureSumsToPositiveZero) {
  // A new group is AggregateState{} merged with its first state, so a
  // -0.0 measure sums to 0.0 + -0.0 = +0.0 while min and max keep -0.0.
  const Groups input = {{5, AggregateState::OfMeasure(-0.0)},
                        {9, AggregateState::OfMeasure(-0.0)},
                        {9, AggregateState::OfMeasure(-0.0)}};
  const Groups groups = TableGroups(input);
  ExpectSameGroups(groups, OracleGroups(input));
  ASSERT_EQ(groups.size(), 2u);
  for (const auto& [key, state] : groups) {
    EXPECT_TRUE(BitEq(state.sum, 0.0)) << key;
    EXPECT_TRUE(BitEq(state.min, -0.0)) << key;
    EXPECT_TRUE(BitEq(state.max, -0.0)) << key;
  }
}

// GroupAccumulator's result against the oracle grouping of the same rows,
// keys decoded by the codec.
void ExpectAccumulatorMatchesOracle(const CubeSchema& schema,
                                    AttributeSet group_by, size_t rows,
                                    uint64_t seed) {
  const std::vector<int> attrs = group_by.ToVector();
  const KeyCodec codec(schema, attrs);
  GroupAccumulator acc(schema, group_by);
  Groups input;
  Pcg32 rng(seed);
  std::vector<uint32_t> dims(static_cast<size_t>(schema.num_dimensions()));
  for (size_t r = 0; r < rows; ++r) {
    for (int a = 0; a < schema.num_dimensions(); ++a) {
      // Few values per attribute, so groups repeat.
      dims[static_cast<size_t>(a)] = rng.NextBounded(std::min<uint32_t>(
          3, static_cast<uint32_t>(schema.dimension(a).cardinality)));
      if (rng.NextBounded(4) == 0) {
        dims[static_cast<size_t>(a)] = static_cast<uint32_t>(
            schema.dimension(a).cardinality - 1);
      }
    }
    const AggregateState state = AggregateState::OfMeasure(
        static_cast<double>(rng.NextBounded(1000)) / 3.0);
    acc.AddDims(r, dims.data(), state);
    input.emplace_back(codec.EncodeRow(dims), state);
  }
  const GroupedResult result = acc.Finish();
  const Groups expected = OracleGroups(input);
  EXPECT_EQ(result.group_attrs, attrs);
  ASSERT_EQ(result.num_rows(), expected.size());
  ASSERT_EQ(result.keys.size(), expected.size());
  ASSERT_EQ(result.aggregates.size(), expected.size());
  for (size_t row = 0; row < expected.size(); ++row) {
    const auto& [key, state] = expected[row];
    ASSERT_EQ(result.keys[row].size(), attrs.size());
    for (size_t i = 0; i < attrs.size(); ++i) {
      EXPECT_EQ(result.keys[row][i], codec.Decode(key, static_cast<int>(i)));
    }
    EXPECT_TRUE(StatesBitEq(result.aggregates[row], state)) << row;
    EXPECT_TRUE(BitEq(result.sums[row], state.sum)) << row;
  }
}

TEST(GroupTableTest, AccumulatorMatchesOracle) {
  const CubeSchema schema({Dimension{"a", 12}, Dimension{"b", 7},
                           Dimension{"c", 4}, Dimension{"d", 9}});
  for (uint32_t mask = 0; mask < 16; ++mask) {
    SCOPED_TRACE(::testing::Message() << "mask " << mask);
    ExpectAccumulatorMatchesOracle(schema, AttributeSet::FromMask(mask), 2000,
                                   mask + 1);
  }
}

TEST(GroupTableTest, AccumulatorWithSixtyFourBitCodec) {
  // Eight 256-value attributes: the group key takes exactly 64 bits.
  std::vector<Dimension> dims;
  for (int i = 0; i < 8; ++i) {
    dims.push_back(Dimension{"x" + std::to_string(i), 256});
  }
  const CubeSchema schema(dims);
  ASSERT_EQ(KeyCodec(schema, AttributeSet::FromMask(0xff).ToVector())
                .total_bits(),
            64);
  ExpectAccumulatorMatchesOracle(schema, AttributeSet::FromMask(0xff), 5000,
                                 17);
}

TEST(GroupTableTest, ResultKeysTellApartRowCountsAtWidthZero) {
  // A group-by ∅ result has width 0 and holds no key values, so equal
  // widths and values alone cannot tell zero rows from one.
  const CubeSchema schema({Dimension{"a", 4}});
  GroupAccumulator none(schema, AttributeSet());
  GroupAccumulator one(schema, AttributeSet());
  one.AddDims(0, std::vector<uint32_t>{2}.data(),
              AggregateState::OfMeasure(1.0));
  const GroupedResult empty = none.Finish();
  const GroupedResult total = one.Finish();
  EXPECT_EQ(empty.keys.size(), 0u);
  EXPECT_EQ(total.keys.size(), 1u);
  EXPECT_EQ(total.keys[0].size(), 0u);
  EXPECT_FALSE(empty.keys == total.keys);
  EXPECT_TRUE(total.keys == one.Finish().keys);
  EXPECT_FALSE(ResultKeys(0, 2) == ResultKeys(0, 3));
  EXPECT_FALSE(ResultKeys(2, 0) == ResultKeys(3, 0));
}

TEST(GroupTableTest, ResultKeyRowsCompareByValue) {
  ResultKeys keys(2, 3);
  const uint32_t values[3][2] = {{1, 2}, {1, 3}, {1, 2}};
  for (size_t r = 0; r < 3; ++r) {
    std::copy(values[r], values[r] + 2, keys.mutable_row(r));
  }
  EXPECT_TRUE(keys[0] == keys[2]);
  EXPECT_TRUE(keys[0] != keys[1]);
  EXPECT_EQ(keys[1][1], 3u);
  EXPECT_EQ(std::vector<uint32_t>(keys[1].begin(), keys[1].end()),
            (std::vector<uint32_t>{1, 3}));
  ResultKeys other = keys;
  EXPECT_TRUE(other == keys);
  other.mutable_row(2)[1] = 9;
  EXPECT_FALSE(other == keys);
}

}  // namespace
}  // namespace olapidx
