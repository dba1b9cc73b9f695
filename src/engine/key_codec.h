// KeyCodec: packs an ordered list of dimension values into a single uint64
// whose numeric order equals the lexicographic order of the values in key
// order. This is the composite-key representation the view indexes sort
// and binary-search (engine/view_index.h) and the group-bys sort or hash
// by.

#ifndef OLAPIDX_ENGINE_KEY_CODEC_H_
#define OLAPIDX_ENGINE_KEY_CODEC_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "lattice/schema.h"

namespace olapidx {

class KeyCodec {
 public:
  // `attr_order`: the attributes of the key, most-significant first.
  // The per-attribute bit widths are ceil(log2(cardinality)) and must sum
  // to at most 64.
  KeyCodec(const CubeSchema& schema, std::vector<int> attr_order);

  const std::vector<int>& attr_order() const { return attr_order_; }
  int num_attrs() const { return static_cast<int>(attr_order_.size()); }
  int total_bits() const { return total_bits_; }

  // Places `value` at key position `i`; a key is the OR of one Encode per
  // position, so callers holding values elsewhere need no `dims` vector.
  uint64_t Encode(int i, uint32_t value) const {
    return static_cast<uint64_t>(value) << shifts_[static_cast<size_t>(i)];
  }

  // Encodes the key attributes of one row; `dims[a]` is the value of
  // attribute a (indexed by attribute id, not key position).
  uint64_t EncodeRow(const std::vector<uint32_t>& dims) const {
    uint64_t key = 0;
    for (size_t i = 0; i < attr_order_.size(); ++i) {
      key |= Encode(static_cast<int>(i),
                    dims[static_cast<size_t>(attr_order_[i])]);
    }
    return key;
  }

  // Encodes explicit values given in key order (values.size() may be a
  // prefix of the key; remaining positions are zero).
  uint64_t EncodePrefix(const std::vector<uint32_t>& values) const;

  // The inclusive key range [lo, hi] of all keys beginning with the given
  // prefix values (in key order).
  std::pair<uint64_t, uint64_t> PrefixRange(
      const std::vector<uint32_t>& values) const;

  // Bit offset of key position `i`'s least-significant bit: a key shifted
  // right by shift(i) keeps positions 0..i.
  int shift(int i) const { return shifts_[static_cast<size_t>(i)]; }

  // Decodes position `i` (in key order) out of an encoded key.
  uint32_t Decode(uint64_t key, int i) const {
    return static_cast<uint32_t>((key >> shifts_[static_cast<size_t>(i)]) &
                                 masks_[static_cast<size_t>(i)]);
  }

 private:
  std::vector<int> attr_order_;
  std::vector<int> shifts_;       // left shift per key position
  std::vector<uint64_t> masks_;   // value mask per key position
  int total_bits_ = 0;
};

}  // namespace olapidx

#endif  // OLAPIDX_ENGINE_KEY_CODEC_H_
