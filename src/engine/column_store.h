// ColumnStore: a compressed columnar representation of a materialized
// view, built for throughput-grade scan serving.
//
// Layout (Kaser & Lemire-style attribute/value reordering, PAPERS.md):
//
//  1. Per-column value recode: each attribute gets a local dictionary that
//     ranks its values by descending frequency in the view (ties by
//     ascending global code), so hot values get small local codes and
//     cluster together under the sort below.
//  2. Attribute-frequency sort: columns are ordered by ascending
//     distinct-value count (ties by ascending attribute id) and the view's
//     rows are re-sorted lexicographically under that column order over
//     the local codes, packed into one uint64 sort key per row (a local
//     code fits its attribute's KeyCodec width, and the view's KeyCodec
//     bounds the widths' sum by 64). Leading low-cardinality columns then
//     consist of a handful of giant runs; the k-th column has at most
//     prod_{j<=k} distinct_j runs — minimized by putting the smallest
//     distinct counts first.
//  3. Per-column encoding: run-length (one {local value, run length} pair
//     per run) when the runs pay for themselves, otherwise bit-packed
//     literals at ceil(log2(distinct)) bits per row. The choice is purely
//     size-driven and invisible through the accessors.
//  4. Aggregate compression: groups that aggregate a single fact row
//     (count == 1, the common case in sparse cubes) have
//     sum == min == max, so one double reconstructs the whole
//     AggregateState bit-exactly; a bitmap marks them and only
//     multi-row groups store the full 32-byte state.
//
// The store is a *second representation* of the view: the row-store
// MaterializedView keeps working unchanged (roll-ups, deltas, indexes),
// and the executor's scan path reads whichever representation the catalog
// says is attached; a refresh re-encodes it from the refreshed view
// (Catalog::RefreshAfterAppend). Scan() decodes sequentially with
// per-run — not per-row — dictionary translation, which is where the
// batched executor's decode amortization comes from. Note the store's row
// order differs from the view's: scans visit the same set of rows in a
// different order, so per-group float accumulation can differ from the
// row store in the last ulp (exact-measure cubes, e.g. dyadic measures,
// are bit-identical; see column_store_test).

#ifndef OLAPIDX_ENGINE_COLUMN_STORE_H_
#define OLAPIDX_ENGINE_COLUMN_STORE_H_

#include <cstdint>
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

struct ColumnStoreOptions {
  // Apply the attribute-frequency sort (ascending-distinct column order +
  // frequency value recode + row re-sort). Off keeps the view's row order,
  // which still RLE-compresses the leading key columns (the view is key
  // sorted) but leaves the trailing ones incompressible.
  bool reorder = true;
};

class ColumnStore {
 public:
  static ColumnStore FromView(const MaterializedView& view,
                              const ColumnStoreOptions& options = {});

  AttributeSet attrs() const { return attrs_; }
  size_t num_rows() const { return num_rows_; }
  bool reordered() const { return reordered_; }

  // ---- Sequential scan (the hot path) ----
  //
  // fn(row, dims, state): `dims` is indexed by attribute id and holds the
  // current row's *global* dimension codes for every attribute of the
  // view; `state` is the row's reconstructed AggregateState. Dictionary
  // translation happens once per run for RLE columns.
  template <typename Fn>
  void Scan(Fn&& fn) const {
    ScanState cursor(*this);
    for (size_t r = 0; r < num_rows_; ++r) {
      cursor.Advance(r);
      fn(r, cursor.dims.data(), cursor.state);
    }
  }

  // ---- Random access (tests, spot checks; O(log runs) for RLE) ----
  uint32_t dim(size_t row, int attr) const;       // global code
  AggregateState aggregate(size_t row) const;     // bit-exact reconstruction

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

 private:
  ColumnStore() = default;

  enum class Encoding { kRle, kPacked };

  struct Column {
    int attr = 0;
    Encoding encoding = Encoding::kRle;
    // Local → global code, frequency-ranked.
    std::vector<uint32_t> local_to_global;
    // kRle payload.
    RleColumn rle;
    // kPacked payload: local codes at `bits` per row, little-endian within
    // each uint64 word.
    std::vector<uint64_t> packed;
    int bits = 0;

    uint32_t LocalAt(size_t row) const;
    size_t PayloadBytes() const;
  };

  // Per-row sequential decoder shared by Scan(); kept out of the template
  // so the per-column cursor logic lives in the .cc.
  struct ScanState {
    explicit ScanState(const ColumnStore& store);
    void Advance(size_t row);

    const ColumnStore& store;
    std::vector<uint32_t> dims;  // by attribute id
    // Per column (store order): index of the current run and the row at
    // which it ends (RLE columns only).
    std::vector<size_t> run_index;
    std::vector<size_t> run_end;
    // Aggregate plane cursors.
    size_t next_single = 0;
    size_t next_full = 0;
    AggregateState state;
  };

  uint32_t LocalToGlobal(const Column& c, uint32_t local) const {
    return c.local_to_global[local];
  }
  bool IsSingleton(size_t row) const {
    return (single_bits_[row >> 6] >> (row & 63)) & 1;
  }

  AttributeSet attrs_;
  size_t num_rows_ = 0;
  bool reordered_ = false;
  int num_dimensions_ = 0;
  // Columns in storage (sort-priority) order.
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

}  // namespace olapidx

#endif  // OLAPIDX_ENGINE_COLUMN_STORE_H_
