// GroupAccumulator: aggregates the rows a scan feeds it by group key and
// emits a GroupedResult sorted by encoded group key, its keys decoded
// row-major into one flat array. Every group is AggregateState{} merged
// with its rows' states in visit order, so two scans of the same rows in
// the same order agree bitwise.
//
// It has two paths, and AccumulatorFor() picks one per query with
// SortsGroups() (group_table.h), from the group-by's key domain and a
// bound on the rows the plan feeds:
//
//  - The hash path merges each row into a GroupTable. A scan often
//    visits rows sorted by the leading group-by attributes: a view scan
//    in the view's key order, an index probe in the index key's.
//    OrderedGroupPrefix() reads that prefix off the plan, and an
//    accumulator told its input is sorted by p > 0 leading attributes
//    aggregates one segment of equal prefix values at a time: when the
//    segment changes it emits the table's groups in key order and clears
//    the table. Segments ascend, so the emitted groups are the whole
//    result in key order. With p = 0 it hashes every group and sorts them
//    once in Finish().
//  - The sort path, for group-bys whose groups are almost as many as
//    their rows, keeps only (key, row) per row: 16 bytes, no state and no
//    probe. Finish() hands the pairs to FoldKeyRanges as one key range:
//    it sorts them stably by key (RadixSortByKey), sizes the result once
//    and folds each key's run in visit order, reading every row's state
//    from the plan's storage (RowStates), and writes the keys, sums and
//    states straight into the result. It ignores the ordered prefix.
//
// Both paths fold every group in visit order, so their results, the p = 0
// and p > 0 hash paths included, are bit-identical.
//
// SortGroupsOnPool runs the sort path of a full row-storage scan on a
// thread pool: each chunk scans its own rows, the pairs scatter into one
// key range per chunk, and FoldKeyRanges sorts and folds the ranges side
// by side. Each key's pairs keep their row order, so the result is the
// serial sort path's, bit for bit, for any pool size.
//
// ScanForMembers is the one physical scan both executors run: it hoists
// each member query's predicates and group-by columns, builds its
// accumulator, runs the plan's scan or probe once and finishes every
// member. Executor::Execute calls it with one member, and each
// BatchExecutor task with the members it serves, so a one-query batch and
// Execute agree field for field.

#ifndef OLAPIDX_ENGINE_GROUP_ACCUMULATOR_H_
#define OLAPIDX_ENGINE_GROUP_ACCUMULATOR_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "engine/column_store.h"
#include "engine/executor.h"
#include "engine/group_table.h"
#include "engine/key_codec.h"
#include "engine/key_sort.h"

namespace olapidx {

// How many leading group-by attributes (ascending attribute order) a
// scan's accumulated rows arrive sorted by, when the scan visits rows in
// lexicographic order of `scan_order`. Selection attributes are constant
// on accumulated rows, so they are skipped; the count stops at the first
// other attribute that is not the next group-by attribute. An empty
// `scan_order` (a raw scan) gives 0.
inline size_t OrderedGroupPrefix(const std::vector<int>& scan_order,
                                 AttributeSet group_by,
                                 AttributeSet selection) {
  const std::vector<int> group_attrs = group_by.ToVector();
  size_t prefix = 0;
  for (int a : scan_order) {
    if (selection.Contains(a)) continue;
    if (prefix == group_attrs.size() || a != group_attrs[prefix]) break;
    ++prefix;
  }
  return prefix;
}

// Where a plan's rows keep their aggregate states, for the sort path to
// re-read in Finish(): the view's state array (row-store scans and index
// probes), its column store (columnar scans, whose aggregate() is
// bit-exact) or the fact table's measures (raw scans).
class RowStates {
 public:
  explicit RowStates(const AggregateState* states) : states_(states) {}
  explicit RowStates(const ColumnStore* store) : store_(store) {}
  explicit RowStates(const double* measures) : measures_(measures) {}

  // Calls fn(state_of), state_of(row) returning row's AggregateState: one
  // dispatch on the storage, not one per row.
  template <typename Fn>
  void Visit(Fn&& fn) const {
    if (states_ != nullptr) {
      fn([this](size_t row) -> const AggregateState& {
        return states_[row];
      });
    } else if (store_ != nullptr) {
      fn([this](size_t row) { return store_->aggregate(row); });
    } else {
      OLAPIDX_CHECK(measures_ != nullptr);
      fn([this](size_t row) {
        return AggregateState::OfMeasure(measures_[row]);
      });
    }
  }

 private:
  const AggregateState* states_ = nullptr;
  const ColumnStore* store_ = nullptr;
  const double* measures_ = nullptr;
};

// The sort path's kernel. Pairs [bounds[r], bounds[r + 1]) of `pairs` are
// key range r: each of its keys lies below every key of range r + 1, and
// each key's pairs are in visit order. Every range is sorted stably by key
// (RadixSortByKey, with the same pairs of `scratch` as its second buffer;
// pairs already sorted need none, so `scratch` may then be null) and its
// groups counted; then the calling thread sizes the result once,
// and every range folds its runs (FoldSortedRuns) into its own slice of
// it, reading states from `states`. With a pool the ranges are its
// chunks' work, without one they run in order on the calling thread. The
// calling thread allocates the result and two small per-range arrays; a
// range shorter than kKeySortRadixMin pairs may allocate in
// std::stable_sort, so a caller passing a pool passes no such range.
inline GroupedResult FoldKeyRanges(const KeyCodec& codec,
                                   const RowStates& states, KeyRow* pairs,
                                   KeyRow* scratch,
                                   const std::vector<size_t>& bounds,
                                   ThreadPool* pool) {
  const size_t ranges = bounds.size() - 1;
  const auto for_each_range = [&](const auto& fn) {
    if (pool == nullptr) {
      for (size_t r = 0; r < ranges; ++r) fn(r);
      return;
    }
    pool->ParallelFor(ranges, [&](size_t begin, size_t end, size_t) {
      for (size_t r = begin; r < end; ++r) fn(r);
    });
  };
  std::vector<std::span<const KeyRow>> sorted(ranges);
  // first_group[r]: range r's first row of the result.
  std::vector<size_t> first_group(ranges + 1, 0);
  for_each_range([&](size_t r) {
    const size_t n = bounds[r + 1] - bounds[r];
    KeyRow* spare = scratch == nullptr ? nullptr : scratch + bounds[r];
    sorted[r] = {RadixSortByKey(pairs + bounds[r], spare, n), n};
    first_group[r + 1] = CountSortedKeys(sorted[r]);
  });
  for (size_t r = 0; r < ranges; ++r) first_group[r + 1] += first_group[r];

  GroupedResult out;
  const size_t width = static_cast<size_t>(codec.num_attrs());
  const size_t groups = first_group[ranges];
  out.group_attrs = codec.attr_order();
  out.keys = ResultKeys(width, groups);
  // Ranges folded one after another append their groups in order; ranges
  // folded side by side write into slices of a sized result.
  const bool appends = pool == nullptr;
  if (appends) {
    out.sums.reserve(groups);
    out.aggregates.reserve(groups);
  } else {
    out.sums.resize(groups);
    out.aggregates.resize(groups);
  }
  for_each_range([&](size_t r) {
    size_t row = first_group[r];
    states.Visit([&](auto state_of) {
      FoldSortedRuns(sorted[r], state_of,
                     [&](uint64_t key, const AggregateState& state) {
                       uint32_t* values = out.keys.mutable_row(row);
                       for (size_t i = 0; i < width; ++i) {
                         values[i] = codec.Decode(key, static_cast<int>(i));
                       }
                       if (appends) {
                         out.sums.push_back(state.sum);
                         out.aggregates.push_back(state);
                       } else {
                         out.sums[row] = state.sum;
                         out.aggregates[row] = state;
                       }
                       ++row;
                     });
    });
  });
  return out;
}

class GroupAccumulator {
 public:
  // The hash path. The rows added must arrive sorted by the first
  // `ordered_prefix` group-by attributes (ascending attribute order).
  GroupAccumulator(const CubeSchema& schema, AttributeSet group_by,
                   size_t ordered_prefix = 0)
      : attrs_(group_by.ToVector()),
        codec_(schema, attrs_),
        ordered_prefix_(ordered_prefix) {
    OLAPIDX_CHECK(ordered_prefix <= attrs_.size());
    if (ordered_prefix > 0) {
      segment_shift_ = codec_.shift(static_cast<int>(ordered_prefix) - 1);
    }
  }

  // The sort path: keeps (key, row) per added row, in any row order, and
  // Finish() reads each row's state from `states`. The states the add
  // calls pass are not used.
  GroupAccumulator(const CubeSchema& schema, AttributeSet group_by,
                   RowStates states)
      : attrs_(group_by.ToVector()),
        codec_(schema, attrs_),
        ordered_prefix_(0),
        sorted_from_(states) {}

  bool sorts() const { return sorted_from_.has_value(); }

  // Hoisted-column variant: `cols[i]` is the raw column of group-by
  // attribute i (ascending attribute order), resolved once per query
  // instead of once per row.
  void AddRow(const uint32_t* const* cols, size_t row,
              const AggregateState& state) {
    scratch_.resize(attrs_.size());
    for (size_t i = 0; i < attrs_.size(); ++i) {
      scratch_[i] = cols[i][row];
    }
    Add(row, codec_.EncodePrefix(scratch_), state);
  }

  // Decoded-row variant for columnar scans: `dims` is indexed by
  // attribute id (ColumnStore::Scan's row image).
  void AddDims(size_t row, const uint32_t* dims, const AggregateState& state) {
    scratch_.resize(attrs_.size());
    for (size_t i = 0; i < attrs_.size(); ++i) {
      scratch_[i] = dims[static_cast<size_t>(attrs_[i])];
    }
    Add(row, codec_.EncodePrefix(scratch_), state);
  }

  GroupedResult Finish() {
    if (sorts()) {
      // Sorting first frees the radix sort's spare buffer before the fold,
      // so the fold holds one copy of the pairs; sorted, they need no
      // scratch.
      RadixSortByKey(pairs_);
      return FoldKeyRanges(codec_, *sorted_from_, pairs_.data(),
                           /*scratch=*/nullptr, {0, pairs_.size()},
                           /*pool=*/nullptr);
    }
    GroupedResult out;
    out.group_attrs = attrs_;
    const size_t width = attrs_.size();
    const size_t rows = done_keys_.size() + groups_.size();
    out.keys = ResultKeys(width, rows);
    out.sums.reserve(rows);
    out.aggregates.reserve(rows);
    size_t row = 0;
    const auto append = [&](uint64_t key, const AggregateState& state) {
      uint32_t* values = out.keys.mutable_row(row++);
      for (size_t i = 0; i < width; ++i) {
        values[i] = codec_.Decode(key, static_cast<int>(i));
      }
      out.sums.push_back(state.sum);
      out.aggregates.push_back(state);
    };
    for (size_t i = 0; i < done_keys_.size(); ++i) {
      append(done_keys_[i], done_states_[i]);
    }
    // The last segment, or every group when the input is unordered.
    groups_.Emit(append);
    return out;
  }

 private:
  void Add(size_t row, uint64_t key, const AggregateState& state) {
    if (sorts()) {
      OLAPIDX_DCHECK(row <= std::numeric_limits<uint32_t>::max());
      pairs_.push_back(KeyRow{key, static_cast<uint32_t>(row)});
      return;
    }
    if (ordered_prefix_ > 0) {
      const uint64_t segment = key >> segment_shift_;
      if (segment != segment_) {
        // Segments only ascend; a caller that claims an order its rows
        // lack fails here.
        OLAPIDX_DCHECK(segment > segment_);
        groups_.Emit([&](uint64_t k, const AggregateState& s) {
          done_keys_.push_back(k);
          done_states_.push_back(s);
        });
        groups_.Clear();
        segment_ = segment;
      }
    }
    groups_.Merge(key, state);
  }

  std::vector<int> attrs_;
  KeyCodec codec_;
  size_t ordered_prefix_;
  // A key's segment id is the key shifted right by segment_shift_: its
  // first ordered_prefix_ attributes.
  int segment_shift_ = 0;
  uint64_t segment_ = 0;  // the segment groups_ holds
  GroupTable groups_;
  // The groups of the segments before segment_, in key order.
  std::vector<uint64_t> done_keys_;
  std::vector<AggregateState> done_states_;
  // The sort path: where Finish() reads states, and one pair per row.
  std::optional<RowStates> sorted_from_;
  std::vector<KeyRow> pairs_;
  std::vector<uint32_t> scratch_;
};

// The accumulator for `query`'s group-by over the rows `plan` feeds it;
// `store` is the column store a columnar view scan reads, else null. One
// rule picks the path: SortsGroups(the group-by's key domain, a bound on
// the rows fed), the bound being the fact rows for a raw scan, the view's
// rows for a view scan and the planner's estimate for an index probe. The
// hash path takes the plan's ordered group-by prefix.
inline GroupAccumulator AccumulatorFor(const Catalog& catalog,
                                       const PlannedAccess& plan,
                                       const ColumnStore* store,
                                       const SliceQuery& query) {
  const CubeSchema& schema = catalog.schema();
  double rows_bound = plan.estimated_cost;
  if (plan.use_raw) {
    rows_bound = static_cast<double>(catalog.fact().num_rows());
  } else if (plan.index == nullptr) {
    rows_bound = static_cast<double>(catalog.view(plan.view).num_rows());
  }
  if (!SortsGroups(schema.DomainSize(query.group_by()), rows_bound)) {
    return GroupAccumulator(schema, query.group_by(),
                            OrderedGroupPrefix(ScanOrder(plan),
                                               query.group_by(),
                                               query.selection()));
  }
  if (plan.use_raw) {
    return GroupAccumulator(schema, query.group_by(),
                            RowStates(catalog.fact().measure_data()));
  }
  if (store != nullptr) {
    return GroupAccumulator(schema, query.group_by(), RowStates(store));
  }
  return GroupAccumulator(
      schema, query.group_by(),
      RowStates(catalog.view(plan.view).aggregate_data()));
}

// ---------------------------------------------------------------------------
// The sort path on a pool.
// ---------------------------------------------------------------------------

// A full scan of row storage, the fact table or a view's row store: its
// rows, its selection predicates and group-by columns (ascending attribute
// order) resolved to raw columns once per query, and where its rows'
// states live.
struct RowScan {
  struct Predicate {
    const uint32_t* column;
    uint32_t value;
  };
  size_t rows = 0;
  std::vector<Predicate> predicates;
  std::vector<const uint32_t*> group_columns;
  RowStates states;

  bool Matches(size_t row) const {
    for (const Predicate& p : predicates) {
      if (p.column[row] != p.value) return false;
    }
    return true;
  }
};

// ScanForMembers runs one member's sort-path group-by over a full
// row-storage scan of at least this many rows on its pool when that pool
// has two or more threads. Below it, waking the pool for four jobs and
// the extra scatter pass cost about what the second thread saves: over
// wide group-bys of serve-cold's schema, two threads took 0.98-1.00x the
// serial sort path's median time at 8,192 rows, 0.84-0.94x at 16,384 and
// 0.63-0.71x from 49,152 (two pinned cores, medians of 61).
inline constexpr size_t kPooledSortMinRows = 16384;

// Pairs are routed to key ranges by the top kKeyRangeBits bits of the
// key: 256 buckets keep the scatter's write streams in L1.
inline constexpr int kKeyRangeBits = 8;

// The sort path of `scan` grouped by `group_by`, run on `pool`, bit for
// bit the serial sort path's result (GroupAccumulator over the same scan)
// for any pool size:
//  1. Chunk c scans its contiguous row range into its own (key, row)
//     pairs, in row order, and counts them by the key's top
//     kKeyRangeBits bits.
//  2. The calling thread cuts those buckets into one key range per chunk,
//     each holding about the same number of pairs, and each chunk
//     scatters its pairs into place. Within a bucket the chunks' pairs
//     follow one another in chunk order, so every key's pairs stay in row
//     order.
//  3. FoldKeyRanges sorts each range, counts its groups and folds it into
//     its slice of the result.
// Every buffer, two pairs per row scanned at most besides the result, is
// allocated by the calling thread; no pool thread allocates. A pool of two
// or more threads counts the query in "executor.aggregations_parallel".
inline GroupedResult SortGroupsOnPool(const CubeSchema& schema,
                                      AttributeSet group_by,
                                      const RowScan& scan, ThreadPool& pool) {
  // Pair offsets are 32-bit, as a pair's row is.
  OLAPIDX_CHECK(scan.rows <= std::numeric_limits<uint32_t>::max());
  const KeyCodec codec(schema, group_by.ToVector());
  constexpr size_t kBuckets = size_t{1} << kKeyRangeBits;
  const int bucket_shift = std::max(0, codec.total_bits() - kKeyRangeBits);
  const size_t chunks = pool.num_threads();
  if (chunks > 1) {
    OLAPIDX_METRIC_COUNTER(parallel, "executor.aggregations_parallel");
    parallel.Add(1);
  }
  // Chunk c fills the pairs at its own row range of `scanned` and
  // counts[c]; counts[c][b] later becomes where its first pair of bucket
  // b goes.
  const auto scanned = std::make_unique_for_overwrite<KeyRow[]>(scan.rows);
  std::vector<std::array<uint32_t, kBuckets>> counts(chunks);
  std::vector<size_t> kept(chunks, 0);
  pool.ParallelFor(scan.rows, [&](size_t begin, size_t end, size_t c) {
    KeyRow* out = scanned.get() + begin;
    std::array<uint32_t, kBuckets>& count = counts[c];
    size_t n = 0;
    for (size_t row = begin; row < end; ++row) {
      if (!scan.Matches(row)) continue;
      uint64_t key = 0;
      for (size_t i = 0; i < scan.group_columns.size(); ++i) {
        key |= codec.Encode(static_cast<int>(i), scan.group_columns[i][row]);
      }
      out[n++] = KeyRow{key, static_cast<uint32_t>(row)};
      ++count[key >> bucket_shift];
    }
    kept[c] = n;
  });

  size_t pairs = 0;
  for (size_t n : kept) pairs += n;
  // bounds[r]: range r's first pair. A range opens at the first bucket
  // boundary where its share of the pairs, r / chunks, has been reached.
  std::vector<size_t> bounds(chunks + 1, pairs);
  bounds[0] = 0;
  size_t range = 1;
  uint32_t offset = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    while (range < chunks && offset >= range * pairs / chunks) {
      bounds[range++] = offset;
    }
    for (std::array<uint32_t, kBuckets>& count : counts) {
      const uint32_t in_bucket = count[b];
      count[b] = offset;
      offset += in_bucket;
    }
  }
  const auto grouped = std::make_unique_for_overwrite<KeyRow[]>(pairs);
  pool.ParallelFor(chunks, [&](size_t begin, size_t end, size_t) {
    for (size_t c = begin; c < end; ++c) {
      const KeyRow* in =
          scanned.get() + ThreadPool::ChunkBounds(scan.rows, chunks, c).first;
      std::array<uint32_t, kBuckets>& next = counts[c];
      for (size_t i = 0; i < kept[c]; ++i) {
        grouped[next[in[i].key >> bucket_shift]++] = in[i];
      }
    }
  });
  // The scanned pairs are spent: their buffer is the ranges' scratch. A
  // range too short for the radix sort goes to std::stable_sort, which
  // may allocate, so then the ranges are sorted and folded here, in
  // order: a few thousand pairs or fewer, not worth waking the pool.
  bool fan_out = true;
  for (size_t r = 0; r < chunks; ++r) {
    const size_t n = bounds[r + 1] - bounds[r];
    if (n > 0 && n < kKeySortRadixMin) fan_out = false;
  }
  return FoldKeyRanges(codec, scan.states, grouped.get(), scanned.get(),
                       bounds, fan_out ? &pool : nullptr);
}

// ---------------------------------------------------------------------------
// The scan kernel of both executors.
// ---------------------------------------------------------------------------

// The selection values of a probe plan's matched prefix, in index-key
// order: the values its descent seeks. Empty for a scan.
std::vector<uint32_t> ProbePrefixValues(
    const PlannedAccess& plan, const SliceQuery& query,
    const std::vector<uint32_t>& selection_values);

// One query a physical scan serves: its selection values, parallel to
// query->selection().ToVector(), and where its result goes.
struct ScanMember {
  const SliceQuery* query;
  const std::vector<uint32_t>* selection_values;
  GroupedResult* result;
};

// What one physical scan did, which every member it served reports.
struct PhysicalScan {
  // The table's rows for a full scan, in either store (the paper's cost,
  // however many rows the column store skipped); the entries an index
  // probe returned.
  uint64_t rows = 0;
  uint64_t bytes_scanned = 0;  // storage bytes read
  bool used_columnar = false;
  uint64_t sorted_members = 0;  // members aggregated on the sort path
};

// Runs `plan` once for `members`, queries that all plan to it, and writes
// each member's result. Each member's predicates and group-by columns are
// hoisted once, and its accumulator comes from AccumulatorFor. Three
// cases:
//  - A plain view scan of one member with a selection reads the view's
//    column store when the catalog holds one, pushing the selection and
//    group-by into ColumnStore::Scan: the store skips rows for
//    predicates, and nowhere else does it save work.
//  - Any other scan reads row storage, the fact table or the view's row
//    store, every member checking its own predicates on every row.
//  - An index probe descends once (ScanPrefix), every member checking its
//    residual predicates on the rows it returns.
// One member taking the sort path over a full row-storage scan of at
// least kPooledSortMinRows rows runs SortGroupsOnPool on pool() instead
// when `pool` is non-null and that pool has two or more threads; `pool`
// is called only then, so a scan that cannot fan out never starts it.
// Every member sees the rows in the scan's one order, so its result is
// the same bits however many members share the scan.
PhysicalScan ScanForMembers(const Catalog& catalog, const PlannedAccess& plan,
                            std::span<const ScanMember> members,
                            ThreadPool& (*pool)());

// What a query answered by `plan` through `scan` reports.
ExecutionStats StatsOf(const PlannedAccess& plan, const PhysicalScan& scan);

}  // namespace olapidx

#endif  // OLAPIDX_ENGINE_GROUP_ACCUMULATOR_H_
