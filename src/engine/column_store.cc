#include "engine/column_store.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <utility>

namespace olapidx {

namespace {

int BitsFor(size_t distinct) {
  int bits = 1;
  while ((size_t{1} << bits) < distinct) ++bits;
  return bits;
}

// A state one double reconstructs: one fact row, with sum, min and max
// equal bit for bit (a -0.0 measure sums to +0.0 but keeps min -0.0).
bool IsSingleton(const AggregateState& st) {
  return st.count == 1 &&
         std::bit_cast<uint64_t>(st.min) == std::bit_cast<uint64_t>(st.sum) &&
         std::bit_cast<uint64_t>(st.max) == std::bit_cast<uint64_t>(st.sum);
}

RleColumn EncodeRuns(const uint32_t* column, size_t n) {
  RleColumn out;
  out.num_rows = n;
  for (size_t r = 0; r < n; ++r) {
    if (out.values.empty() || column[r] != out.values.back()) {
      out.values.push_back(column[r]);
      out.starts.push_back(static_cast<uint32_t>(r));
    }
  }
  return out;
}

}  // namespace

RleColumn RleEncode(const std::vector<uint32_t>& column) {
  return EncodeRuns(column.data(), column.size());
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

ColumnStore ColumnStore::FromView(const MaterializedView& view) {
  ColumnStore store;
  store.attrs_ = view.attrs();
  store.num_rows_ = view.num_rows();
  store.num_dimensions_ = view.schema().num_dimensions();
  const size_t n = view.num_rows();

  // Each column in view row order: the dictionary of its present values,
  // then RLE when the runs pay for themselves, bit-packed local codes
  // otherwise.
  store.column_of_.assign(static_cast<size_t>(store.num_dimensions_), -1);
  for (int attr : view.attrs().ToVector()) {
    const uint32_t* values = view.column_data(attr);
    Column col;
    col.attr = attr;
    // A present value's local code is its rank among the present values.
    const uint32_t max_code =
        n == 0 ? 0 : *std::max_element(values, values + n);
    std::vector<uint32_t> local_of(static_cast<size_t>(max_code) + 1, 0);
    for (size_t r = 0; r < n; ++r) local_of[values[r]] = 1;
    for (size_t code = 0; code < local_of.size(); ++code) {
      if (local_of[code] == 0) continue;
      local_of[code] = static_cast<uint32_t>(col.local_to_global.size());
      col.local_to_global.push_back(static_cast<uint32_t>(code));
    }
    // The recode is a bijection, so local runs are the global runs.
    size_t runs = n > 0 ? 1 : 0;
    for (size_t r = 1; r < n; ++r) {
      if (values[r] != values[r - 1]) ++runs;
    }
    col.bits = BitsFor(std::max<size_t>(col.local_to_global.size(), 2));
    const size_t packed_words = (n * static_cast<size_t>(col.bits) + 63) / 64;
    // A run and a packed word both take 8 bytes.
    if (runs <= packed_words) {
      col.encoding = Encoding::kRle;
      col.rle = EncodeRuns(values, n);
      for (uint32_t& v : col.rle.values) v = local_of[v];
    } else {
      col.encoding = Encoding::kPacked;
      col.packed.assign(packed_words, 0);
      for (size_t r = 0; r < n; ++r) {
        const uint64_t local = local_of[values[r]];
        const size_t bit = r * static_cast<size_t>(col.bits);
        const size_t word = bit >> 6;
        const int shift = static_cast<int>(bit & 63);
        col.packed[word] |= local << shift;
        if (shift + col.bits > 64) {
          col.packed[word + 1] |= local >> (64 - shift);
        }
      }
    }
    store.column_of_[static_cast<size_t>(attr)] =
        static_cast<int>(store.columns_.size());
    store.columns_.push_back(std::move(col));
  }

  // Aggregate plane: bitmap of single-fact-row groups (whole state
  // reconstructible from one double), rank directory per 64-row word,
  // full states for the rest, each payload allocated at its exact size.
  const AggregateState* states = view.aggregate_data();
  const size_t singles =
      static_cast<size_t>(std::count_if(states, states + n, IsSingleton));
  store.single_bits_.assign((n + 63) / 64, 0);
  store.single_rank_.assign((n + 63) / 64, 0);
  store.single_sums_.reserve(singles);
  store.full_states_.reserve(n - singles);
  for (size_t r = 0; r < n; ++r) {
    if ((r & 63) == 0) {
      store.single_rank_[r >> 6] =
          static_cast<uint32_t>(store.single_sums_.size());
    }
    if (IsSingleton(states[r])) {
      store.single_bits_[r >> 6] |= uint64_t{1} << (r & 63);
      store.single_sums_.push_back(states[r].sum);
    } else {
      store.full_states_.push_back(states[r]);
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
  // Predicates in column order: the view's leading key columns have the
  // fewest runs, so they narrow the ranges first.
  std::vector<std::pair<size_t, uint32_t>> by_column;  // (column, local)
  for (const Predicate& p : predicates) {
    OLAPIDX_CHECK(attrs_.Contains(p.attr));
    const size_t c =
        static_cast<size_t>(column_of_[static_cast<size_t>(p.attr)]);
    const std::vector<uint32_t>& dict = columns_[c].local_to_global;
    const auto it = std::lower_bound(dict.begin(), dict.end(), p.value);
    if (it == dict.end() || *it != p.value) return plan;  // absent: no match
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
  plan.dims.assign(static_cast<size_t>(num_dimensions_), 0);
  plan.run.assign(plan.rle_decode.size(), 0);
  plan.run_end.assign(plan.rle_decode.size(), 0);
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
