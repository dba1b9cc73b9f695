#include "engine/key_codec.h"

#include <gtest/gtest.h>

namespace olapidx {
namespace {

CubeSchema SmallSchema() {
  // Cardinalities chosen to give distinct bit widths: 1000 → 10 bits,
  // 50 → 6 bits, 3 → 2 bits.
  return CubeSchema(
      {Dimension{"a", 1000}, Dimension{"b", 50}, Dimension{"c", 3}});
}

TEST(KeyCodecTest, RoundTrips) {
  CubeSchema schema = SmallSchema();
  KeyCodec codec(schema, {2, 0, 1});  // key order: c, a, b
  std::vector<uint32_t> dims = {999, 49, 2};  // values by attribute id
  uint64_t key = codec.EncodeRow(dims);
  EXPECT_EQ(codec.Decode(key, 0), 2u);    // c
  EXPECT_EQ(codec.Decode(key, 1), 999u);  // a
  EXPECT_EQ(codec.Decode(key, 2), 49u);   // b
  EXPECT_EQ(codec.total_bits(), 2 + 10 + 6);
  // Per-position Encode composes to the same key.
  EXPECT_EQ(codec.Encode(0, 2) | codec.Encode(1, 999) | codec.Encode(2, 49),
            key);
}

TEST(KeyCodecTest, OrderPreservedLexicographically) {
  CubeSchema schema = SmallSchema();
  KeyCodec codec(schema, {0, 1});
  // (5, 49) < (6, 0) lexicographically.
  EXPECT_LT(codec.EncodePrefix({5, 49}), codec.EncodePrefix({6, 0}));
  // Same first attr: second decides.
  EXPECT_LT(codec.EncodePrefix({5, 3}), codec.EncodePrefix({5, 4}));
}

TEST(KeyCodecTest, PrefixRangeCoversExactlyMatchingKeys) {
  CubeSchema schema = SmallSchema();
  KeyCodec codec(schema, {0, 1, 2});
  auto [lo, hi] = codec.PrefixRange({7});
  // Smallest and largest keys with a = 7: the suffix (b, c = 6 + 2 bits)
  // ranges over all bit patterns.
  EXPECT_EQ(lo, codec.EncodePrefix({7, 0, 0}));
  EXPECT_EQ(hi, codec.EncodePrefix({7}) | ((1ULL << (6 + 2)) - 1));
  // Neighbours fall outside.
  EXPECT_LT(codec.EncodePrefix({6, 49}), lo);
  EXPECT_GT(codec.EncodePrefix({8, 0}), hi);
}

TEST(KeyCodecTest, FullPrefixRangeIsPointRange) {
  CubeSchema schema = SmallSchema();
  KeyCodec codec(schema, {0, 1});
  auto [lo, hi] = codec.PrefixRange({3, 4});
  EXPECT_EQ(lo, hi);
}

TEST(KeyCodecTest, EmptyPrefixRangeCoversEverything) {
  CubeSchema schema = SmallSchema();
  KeyCodec codec(schema, {0, 1});
  auto [lo, hi] = codec.PrefixRange({});
  EXPECT_EQ(lo, 0u);
  EXPECT_EQ(hi, (1ULL << codec.total_bits()) - 1);
}

TEST(KeyCodecTest, EmptyKey) {
  CubeSchema schema = SmallSchema();
  KeyCodec codec(schema, {});
  EXPECT_EQ(codec.total_bits(), 0);
  EXPECT_EQ(codec.EncodeRow({1, 2, 0}), 0u);
}

TEST(KeyCodecTest, CardinalityOneDimension) {
  CubeSchema schema(
      {Dimension{"a", 1}, Dimension{"b", 4}});
  KeyCodec codec(schema, {0, 1});
  EXPECT_EQ(codec.total_bits(), 1 + 2);
  EXPECT_EQ(codec.Decode(codec.EncodeRow({0, 3}), 1), 3u);
}

TEST(KeyCodecDeathTest, TooManyBitsRejected) {
  std::vector<Dimension> dims;
  for (int i = 0; i < 5; ++i) {
    dims.push_back(Dimension{"d" + std::to_string(i), 1u << 20});
  }
  CubeSchema schema(dims);  // 5 × 20 bits = 100 > 64
  EXPECT_DEATH(KeyCodec(schema, {0, 1, 2, 3, 4}), "CHECK");
}

TEST(KeyCodecDeathTest, PrefixValueOutOfRange) {
  CubeSchema schema = SmallSchema();
  KeyCodec codec(schema, {2});  // c has 2 bits (max value 3)
  EXPECT_DEATH(codec.EncodePrefix({4}), "CHECK");
}

}  // namespace
}  // namespace olapidx
