#include "engine/column_store.h"

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <utility>

#include "engine/key_codec.h"

namespace olapidx {

RleColumn RleEncode(const std::vector<uint32_t>& column) {
  RleColumn out;
  out.num_rows = column.size();
  for (size_t r = 0; r < column.size(); ++r) {
    if (out.values.empty() || column[r] != out.values.back()) {
      out.values.push_back(column[r]);
      out.starts.push_back(static_cast<uint32_t>(r));
    }
  }
  return out;
}

std::vector<uint32_t> RleDecode(const RleColumn& rle) {
  std::vector<uint32_t> out;
  out.reserve(rle.num_rows);
  for (size_t run = 0; run < rle.values.size(); ++run) {
    size_t end = run + 1 < rle.starts.size() ? rle.starts[run + 1]
                                             : rle.num_rows;
    out.insert(out.end(), end - rle.starts[run], rle.values[run]);
  }
  return out;
}

namespace {

int BitsFor(size_t distinct) {
  int bits = 1;
  while ((size_t{1} << bits) < distinct) ++bits;
  return bits;
}

}  // namespace

uint32_t ColumnStore::Column::LocalAt(size_t row) const {
  if (encoding == Encoding::kPacked) return PackedAt(row);
  return rle.values[RunAt(*this, 0, row)];
}

size_t ColumnStore::RunAt(const Column& col, size_t from, size_t row) {
  const std::vector<uint32_t>& starts = col.rle.starts;
  // A forward scan usually enters the next run; a skip searches the rest.
  const size_t next = from + 1;
  if (next < starts.size() && starts[next] <= row &&
      (next + 1 == starts.size() || row < starts[next + 1])) {
    return next;
  }
  // Last run whose start is <= row.
  return static_cast<size_t>(
             std::upper_bound(starts.begin() + static_cast<ptrdiff_t>(from),
                              starts.end(), static_cast<uint32_t>(row)) -
             starts.begin()) -
         1;
}

size_t ColumnStore::Column::PayloadBytes() const {
  return encoding == Encoding::kRle ? rle.PayloadBytes()
                                    : packed.size() * 8;
}

ColumnStore ColumnStore::FromView(const MaterializedView& view,
                                  const ColumnStoreOptions& options) {
  ColumnStore store;
  store.attrs_ = view.attrs();
  store.num_rows_ = view.num_rows();
  store.reordered_ = options.reorder;
  store.num_dimensions_ = view.schema().num_dimensions();
  const std::vector<int> attr_list = view.attrs().ToVector();
  const size_t n = view.num_rows();
  const size_t num_cols = attr_list.size();

  // Per-attribute value frequencies and the frequency-ranked local
  // dictionaries (identity recode when reordering is off).
  std::vector<std::vector<uint32_t>> local_codes(num_cols);
  std::vector<std::vector<uint32_t>> local_to_global(num_cols);
  std::vector<size_t> distinct(num_cols, 0);
  for (size_t c = 0; c < num_cols; ++c) {
    const int attr = attr_list[c];
    uint32_t max_code = 0;
    for (size_t r = 0; r < n; ++r) {
      max_code = std::max(max_code, view.dim(r, attr));
    }
    std::vector<uint64_t> freq(static_cast<size_t>(max_code) + 1, 0);
    for (size_t r = 0; r < n; ++r) ++freq[view.dim(r, attr)];
    std::vector<uint32_t> present;
    for (uint32_t code = 0; code <= max_code; ++code) {
      if (freq[code] > 0) present.push_back(code);
    }
    distinct[c] = present.size();
    if (options.reorder) {
      std::stable_sort(present.begin(), present.end(),
                       [&](uint32_t a, uint32_t b) {
                         return freq[a] > freq[b];  // ties keep code order
                       });
    }
    std::vector<uint32_t> global_to_local(
        static_cast<size_t>(max_code) + 1, 0);
    for (size_t i = 0; i < present.size(); ++i) {
      global_to_local[present[i]] = static_cast<uint32_t>(i);
    }
    local_to_global[c] = std::move(present);
    local_codes[c].resize(n);
    for (size_t r = 0; r < n; ++r) {
      local_codes[c][r] = global_to_local[view.dim(r, attr)];
    }
  }

  // Column storage order: ascending distinct count (ties by attribute
  // id), so the leading sort columns have the fewest possible runs.
  std::vector<size_t> col_order(num_cols);
  std::iota(col_order.begin(), col_order.end(), size_t{0});
  if (options.reorder) {
    std::stable_sort(col_order.begin(), col_order.end(),
                     [&](size_t a, size_t b) {
                       return distinct[a] < distinct[b];
                     });
  }

  // Row order: lexicographic over the local codes in storage-column
  // order, sorted as one packed uint64 per row. A local code is below its
  // attribute's cardinality, so the view's KeyCodec widths hold it in at
  // most 64 bits. View rows are distinct in their full key, so the packed
  // keys are distinct and the order is total and deterministic.
  std::vector<uint32_t> row_order(n);
  std::iota(row_order.begin(), row_order.end(), uint32_t{0});
  if (options.reorder) {
    std::vector<int> storage_attrs;
    for (size_t c : col_order) storage_attrs.push_back(attr_list[c]);
    const KeyCodec codec(view.schema(), storage_attrs);
    std::vector<std::pair<uint64_t, uint32_t>> keyed(n);
    for (size_t r = 0; r < n; ++r) {
      uint64_t key = 0;
      for (size_t i = 0; i < num_cols; ++i) {
        key |= codec.Encode(static_cast<int>(i), local_codes[col_order[i]][r]);
      }
      keyed[r] = {key, static_cast<uint32_t>(r)};
    }
    std::sort(keyed.begin(), keyed.end(), [](const auto& a, const auto& b) {
      return a.first < b.first;
    });
    for (size_t r = 0; r < n; ++r) row_order[r] = keyed[r].second;
  }

  // Encode each column in the new row order: RLE when the runs pay for
  // themselves, bit-packed literals otherwise.
  store.column_of_.assign(static_cast<size_t>(store.num_dimensions_), -1);
  for (size_t c : col_order) {
    Column col;
    col.attr = attr_list[c];
    col.local_to_global = std::move(local_to_global[c]);
    std::vector<uint32_t> ordered(n);
    for (size_t r = 0; r < n; ++r) {
      ordered[r] = local_codes[c][row_order[r]];
    }
    RleColumn rle = RleEncode(ordered);
    col.bits = BitsFor(std::max<size_t>(distinct[c], 2));
    const size_t packed_bytes = ((n * static_cast<size_t>(col.bits) + 63) / 64) * 8;
    if (rle.PayloadBytes() <= packed_bytes) {
      col.encoding = Encoding::kRle;
      col.rle = std::move(rle);
    } else {
      col.encoding = Encoding::kPacked;
      col.packed.assign((n * static_cast<size_t>(col.bits) + 63) / 64, 0);
      for (size_t r = 0; r < n; ++r) {
        size_t bit = r * static_cast<size_t>(col.bits);
        size_t word = bit >> 6;
        int shift = static_cast<int>(bit & 63);
        col.packed[word] |= static_cast<uint64_t>(ordered[r]) << shift;
        if (shift + col.bits > 64) {
          col.packed[word + 1] |=
              static_cast<uint64_t>(ordered[r]) >> (64 - shift);
        }
      }
    }
    store.column_of_[static_cast<size_t>(col.attr)] =
        static_cast<int>(store.columns_.size());
    store.columns_.push_back(std::move(col));
  }

  // Aggregate plane: bitmap of single-fact-row groups (whole state
  // reconstructible from one double), rank directory per 64-row word,
  // full states for the rest.
  store.single_bits_.assign((n + 63) / 64, 0);
  store.single_rank_.assign((n + 63) / 64, 0);
  uint32_t singles = 0;
  for (size_t r = 0; r < n; ++r) {
    if ((r & 63) == 0) store.single_rank_[r >> 6] = singles;
    const AggregateState& st = view.aggregate(row_order[r]);
    if (st.count == 1 && st.min == st.sum && st.max == st.sum) {
      store.single_bits_[r >> 6] |= uint64_t{1} << (r & 63);
      store.single_sums_.push_back(st.sum);
      ++singles;
    } else {
      store.full_states_.push_back(st);
    }
  }
  return store;
}

uint32_t ColumnStore::dim(size_t row, int attr) const {
  OLAPIDX_DCHECK(row < num_rows_);
  int c = column_of_[static_cast<size_t>(attr)];
  OLAPIDX_DCHECK(c >= 0);
  const Column& col = columns_[static_cast<size_t>(c)];
  return col.local_to_global[col.LocalAt(row)];
}

ColumnStore::ScanPlan ColumnStore::PlanScan(
    const std::vector<Predicate>& predicates, AttributeSet decode) const {
  OLAPIDX_CHECK(decode.IsSubsetOf(attrs_));
  ScanPlan plan;
  if (num_rows_ == 0) return plan;
  // Predicates in storage order, so the RLE columns with the fewest runs
  // narrow the ranges first.
  std::vector<std::pair<size_t, uint32_t>> by_column;  // (column, local)
  for (const Predicate& p : predicates) {
    OLAPIDX_CHECK(attrs_.Contains(p.attr));
    const size_t c =
        static_cast<size_t>(column_of_[static_cast<size_t>(p.attr)]);
    const std::vector<uint32_t>& dict = columns_[c].local_to_global;
    const auto it = std::find(dict.begin(), dict.end(), p.value);
    if (it == dict.end()) return plan;  // value absent: no row matches
    by_column.emplace_back(c, static_cast<uint32_t>(it - dict.begin()));
  }
  std::sort(by_column.begin(), by_column.end());

  plan.ranges.emplace_back(0, num_rows_);
  for (const auto& [c, local] : by_column) {
    const Column& col = columns_[c];
    if (col.encoding == Encoding::kPacked) {
      plan.packed_checks.emplace_back(&col, local);
      continue;
    }
    // Intersect the ranges with the column's runs of `local`.
    std::vector<std::pair<size_t, size_t>> narrowed;
    size_t run = 0;
    for (const auto& [first, last] : plan.ranges) {
      for (run = RunAt(col, run, first);
           run < col.rle.num_runs() && col.rle.starts[run] < last; ++run) {
        if (col.rle.values[run] != local) continue;
        narrowed.emplace_back(std::max<size_t>(first, col.rle.starts[run]),
                              std::min(last, RunEnd(col, run)));
      }
      --run;  // the last run seen may also hold the next range's start
    }
    plan.ranges = std::move(narrowed);
    if (plan.ranges.empty()) return plan;
  }

  for (const Column& col : columns_) {
    if (!decode.Contains(col.attr)) continue;
    (col.encoding == Encoding::kRle ? plan.rle_decode : plan.packed_decode)
        .push_back(&col);
  }
  return plan;
}

size_t ColumnStore::ColumnBytes(int attr) const {
  int c = column_of_[static_cast<size_t>(attr)];
  OLAPIDX_DCHECK(c >= 0);
  const Column& col = columns_[static_cast<size_t>(c)];
  return col.PayloadBytes() + col.local_to_global.size() * 4;
}

size_t ColumnStore::AggregateBytes() const {
  return single_bits_.size() * 8 + single_rank_.size() * 4 +
         single_sums_.size() * 8 + full_states_.size() * 32;
}

size_t ColumnStore::CompressedBytes() const {
  size_t total = AggregateBytes();
  for (const Column& col : columns_) {
    total += col.PayloadBytes() + col.local_to_global.size() * 4;
  }
  return total;
}

size_t ColumnStore::RowStoreBytes(const MaterializedView& view) {
  return view.num_rows() *
         (view.attrs().ToVector().size() * 4 + sizeof(AggregateState));
}

bool ColumnStore::IsRunLength(int attr) const {
  const int c = column_of_[static_cast<size_t>(attr)];
  OLAPIDX_CHECK(c >= 0);
  return columns_[static_cast<size_t>(c)].encoding == Encoding::kRle;
}

size_t ColumnStore::NumRuns(int attr) const {
  int c = column_of_[static_cast<size_t>(attr)];
  OLAPIDX_DCHECK(c >= 0);
  const Column& col = columns_[static_cast<size_t>(c)];
  if (col.encoding == Encoding::kRle) return col.rle.num_runs();
  // Packed columns still have well-defined runs; count them on demand.
  size_t runs = num_rows_ > 0 ? 1 : 0;
  for (size_t r = 1; r < num_rows_; ++r) {
    if (col.LocalAt(r) != col.LocalAt(r - 1)) ++runs;
  }
  return runs;
}

}  // namespace olapidx
