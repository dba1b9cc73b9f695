// ColumnStore: a compressed columnar representation of a materialized
// view, built for throughput-grade scan serving.
//
// Layout:
//
//  1. Row order: storage row r is view row r. The store keeps the view's
//     key order (ascending attribute id, most significant first), so the
//     leading key columns arrive in long runs and a refresh re-encodes the
//     refreshed view in one linear pass, with no sort.
//  2. Per-column dictionary: an attribute's values present in the view,
//     ascending; a row stores its value's rank in it (its local code), so
//     a predicate finds its local code by binary search.
//  3. Per-column encoding: run-length (one {local value, run start} pair
//     per run) when the runs pay for themselves, otherwise bit-packed
//     literals at ceil(log2(distinct)) bits per row. The choice is purely
//     size-driven and invisible through the accessors.
//  4. Aggregate compression: groups that aggregate a single fact row
//     (count == 1, the common case in sparse cubes) have
//     sum == min == max bit for bit, so one double reconstructs the whole
//     AggregateState bit-exactly; a bitmap marks them and only multi-row
//     groups store the full 32-byte state.
//
// The store is a *second representation* of the view: the row-store
// MaterializedView keeps working unchanged (roll-ups, deltas, indexes),
// and the executor's scan path reads whichever representation the catalog
// says is attached; a refresh re-encodes it from the refreshed view
// (Catalog::RefreshAfterAppend). Scan() is selection-first: equality
// predicates run on local codes before anything is decoded, RLE predicate
// columns skip whole runs, and only the requested columns of matching
// rows are decoded, with one dictionary translation per run of an RLE
// column. A scan visits the matching rows in view row order, exactly as a
// row-store scan does, so per-group float accumulation over the store is
// bit-identical to the row store's (column_store_test pins it with
// fractional measures).

#ifndef OLAPIDX_ENGINE_COLUMN_STORE_H_
#define OLAPIDX_ENGINE_COLUMN_STORE_H_

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "engine/materialized_view.h"
#include "lattice/attribute_set.h"

namespace olapidx {

// ---------------------------------------------------------------------------
// Run-length encoding of one uint32 column (exposed for property tests).
// ---------------------------------------------------------------------------

struct RleColumn {
  std::vector<uint32_t> values;  // one per run
  std::vector<uint32_t> starts;  // row index of each run's first row
  size_t num_rows = 0;

  size_t num_runs() const { return values.size(); }
  size_t PayloadBytes() const { return values.size() * 8; }
};

// Encodes `column` as maximal runs of equal adjacent values. Works on any
// column, sorted or not; unsorted input simply yields more runs.
RleColumn RleEncode(const std::vector<uint32_t>& column);

// Inverse of RleEncode (exact round trip for any input).
std::vector<uint32_t> RleDecode(const RleColumn& rle);

// ---------------------------------------------------------------------------
// The store.
// ---------------------------------------------------------------------------

class ColumnStore {
 public:
  static ColumnStore FromView(const MaterializedView& view);

  AttributeSet attrs() const { return attrs_; }
  size_t num_rows() const { return num_rows_; }

  // One equality predicate of a scan: attribute `attr` (in attrs())
  // holds the global code `value`.
  struct Predicate {
    int attr;
    uint32_t value;
  };

  // ---- Scan (the hot path) ----
  //
  // Visits the rows that satisfy every predicate, in ascending row order
  // (the view's), calling fn(row, dims, state): `dims` is indexed by
  // attribute id and holds the row's *global* codes of the `decode`
  // attributes (other entries are unspecified); `state` is the row's
  // reconstructed AggregateState. Each predicate value maps to its local
  // code once (a value absent from the column matches no row); the
  // matching runs of RLE predicate columns intersect into row ranges, and
  // packed predicate columns compare local codes within them. Only
  // matching rows are decoded.
  template <typename Fn>
  void Scan(const std::vector<Predicate>& predicates, AttributeSet decode,
            Fn&& fn) const;

  // Every row, every attribute decoded.
  template <typename Fn>
  void Scan(Fn&& fn) const {
    Scan({}, attrs_, std::forward<Fn>(fn));
  }

  // ---- Random access (tests, spot checks; O(log runs) for RLE) ----
  uint32_t dim(size_t row, int attr) const;  // global code
  // Bit-exact reconstruction, through the singleton rank directory.
  AggregateState aggregate(size_t row) const {
    OLAPIDX_DCHECK(row < num_rows_);
    const size_t word = row >> 6;
    const uint64_t bit = uint64_t{1} << (row & 63);
    const size_t singles_before =
        single_rank_[word] +
        static_cast<size_t>(std::popcount(single_bits_[word] & (bit - 1)));
    if ((single_bits_[word] & bit) != 0) {
      return AggregateState::OfMeasure(single_sums_[singles_before]);
    }
    return full_states_[row - singles_before];
  }

  // ---- Size accounting ----
  // Compressed payload: column encodings + local dictionaries + aggregate
  // encoding (bitmap, singleton doubles, full states).
  size_t CompressedBytes() const;
  // Bytes the row-store representation of `view` occupies: one uint32
  // column per attribute plus one 32-byte AggregateState per row.
  static size_t RowStoreBytes(const MaterializedView& view);
  // Compressed bytes of one attribute's column (encoding + dictionary).
  size_t ColumnBytes(int attr) const;
  // Compressed bytes of the aggregate plane.
  size_t AggregateBytes() const;
  size_t NumRuns(int attr) const;
  // Whether `attr`'s column is run-length encoded (else bit-packed).
  bool IsRunLength(int attr) const;

 private:
  ColumnStore() = default;

  enum class Encoding { kRle, kPacked };

  struct Column {
    int attr = 0;
    Encoding encoding = Encoding::kRle;
    // Local → global code: the column's present values, ascending.
    std::vector<uint32_t> local_to_global;
    // kRle payload.
    RleColumn rle;
    // kPacked payload: local codes at `bits` per row, little-endian within
    // each uint64 word.
    std::vector<uint64_t> packed;
    int bits = 0;

    uint32_t LocalAt(size_t row) const;
    // Local code of row `row` of a kPacked column.
    uint32_t PackedAt(size_t row) const {
      const size_t bit = row * static_cast<size_t>(bits);
      const size_t word = bit >> 6;
      const int shift = static_cast<int>(bit & 63);
      uint64_t v = packed[word] >> shift;
      if (shift + bits > 64) v |= packed[word + 1] << (64 - shift);
      return static_cast<uint32_t>(v & ((uint64_t{1} << bits) - 1));
    }
    size_t PayloadBytes() const;
  };

  // What one Scan reads, resolved once per scan by PlanScan, and the
  // scan's cursor state, sized there too.
  struct ScanPlan {
    // Row ranges [first, second) in which every RLE predicate holds,
    // ascending and disjoint; empty when no row can match.
    std::vector<std::pair<size_t, size_t>> ranges;
    // Packed predicate columns and the local code each must hold.
    std::vector<std::pair<const Column*, uint32_t>> packed_checks;
    // Columns to decode, by encoding.
    std::vector<const Column*> rle_decode;
    std::vector<const Column*> packed_decode;
    // The current row's global codes, indexed by attribute id.
    std::vector<uint32_t> dims;
    // Forward-only cursor per decoded RLE column: its current run and the
    // row that run ends at (0 before the first matching row, so that row
    // seeks from run 0).
    std::vector<size_t> run;
    std::vector<size_t> run_end;
  };
  ScanPlan PlanScan(const std::vector<Predicate>& predicates,
                    AttributeSet decode) const;

  // Index of the run of RLE column `col` holding `row`, searching forward
  // from run `from` (the run of an earlier row).
  static size_t RunAt(const Column& col, size_t from, size_t row);
  size_t RunEnd(const Column& col, size_t run) const {
    return run + 1 < col.rle.starts.size() ? col.rle.starts[run + 1]
                                           : num_rows_;
  }

  AttributeSet attrs_;
  size_t num_rows_ = 0;
  int num_dimensions_ = 0;
  // Columns in ascending attribute order (the view's key order).
  std::vector<Column> columns_;
  // attr id → position in columns_, or -1.
  std::vector<int> column_of_;

  // Aggregate plane: singleton bitmap + per-64-row rank directory
  // (cumulative singleton count at each word boundary) + payloads.
  std::vector<uint64_t> single_bits_;
  std::vector<uint32_t> single_rank_;     // size == single_bits_.size()
  std::vector<double> single_sums_;       // one per singleton row
  std::vector<AggregateState> full_states_;  // one per non-singleton row
};

template <typename Fn>
void ColumnStore::Scan(const std::vector<Predicate>& predicates,
                       AttributeSet decode, Fn&& fn) const {
  ScanPlan plan = PlanScan(predicates, decode);
  std::vector<uint32_t>& dims = plan.dims;
  std::vector<size_t>& run = plan.run;
  std::vector<size_t>& run_end = plan.run_end;
  for (const auto& [first, last] : plan.ranges) {
    for (size_t r = first; r < last; ++r) {
      bool match = true;
      for (const auto& [col, local] : plan.packed_checks) {
        if (col->PackedAt(r) != local) {
          match = false;
          break;
        }
      }
      if (!match) continue;
      for (size_t k = 0; k < plan.rle_decode.size(); ++k) {
        if (r < run_end[k]) continue;
        // Entering another run: one dictionary translation per run.
        const Column& col = *plan.rle_decode[k];
        run[k] = RunAt(col, run[k], r);
        run_end[k] = RunEnd(col, run[k]);
        dims[static_cast<size_t>(col.attr)] =
            col.local_to_global[col.rle.values[run[k]]];
      }
      for (const Column* col : plan.packed_decode) {
        dims[static_cast<size_t>(col->attr)] =
            col->local_to_global[col->PackedAt(r)];
      }
      fn(r, static_cast<const uint32_t*>(dims.data()), aggregate(r));
    }
  }
}

}  // namespace olapidx

#endif  // OLAPIDX_ENGINE_COLUMN_STORE_H_
