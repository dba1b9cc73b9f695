// Executor: answers slice queries from the catalog, choosing the cheapest
// (view, index) access path under the linear cost model, and reports the
// number of rows actually processed — the measurement experiment E10 checks
// against the model's predictions.

#ifndef OLAPIDX_ENGINE_EXECUTOR_H_
#define OLAPIDX_ENGINE_EXECUTOR_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/catalog.h"
#include "workload/slice_query.h"

namespace olapidx {

struct ExecutionStats {
  // Rows of the chosen table touched to answer the query (the paper's cost
  // measure).
  uint64_t rows_processed = 0;
  bool used_raw = true;
  AttributeSet view;  // meaningful when !used_raw
  IndexKey index;     // empty = plain scan
  // The scan read the view's compressed columnar store rather than its
  // row store (only possible for plain view scans with a selection).
  bool used_columnar = false;
  // Storage bytes the scan read: row-store row width × rows processed,
  // or the store's compressed payload for a columnar scan.
  uint64_t bytes_scanned = 0;
  // The planner's cost estimate for the chosen path.
  double estimated_cost = 0.0;
};

// The planner's chosen access path for a query — extracted from the
// executor so BatchExecutor groups queries by the *identical* plan the
// serial path would run. `index_prefix` is the matched selection prefix
// when an index probe was chosen.
struct PlannedAccess {
  bool use_raw = true;
  AttributeSet view;
  const ViewIndex* index = nullptr;
  AttributeSet index_prefix;
  double estimated_cost = 0.0;
};

// Cheapest access path under the linear cost model: raw scan, view scan,
// or index probe — the first minimum wins ties, matching Explain()'s
// stable sort front.
PlannedAccess PlanAccess(const Catalog& catalog, const SliceQuery& query);

// The attributes a plan's scan visits rows in lexicographic order of: the
// view's attributes for a view scan (row store and column store alike),
// the index key for a probe, none for a raw scan. OrderedGroupPrefix
// turns it into a query's ordered group-by prefix.
std::vector<int> ScanOrder(const PlannedAccess& plan);

// The group keys of a GroupedResult, row-major in one flat array: row r's
// values, parallel to group_attrs, are the `width` values starting at
// r * width. keys[r] is a view of one row.
class ResultKeys {
 public:
  class Row {
   public:
    using const_iterator = const uint32_t*;
    using iterator = const_iterator;

    Row(const uint32_t* data, size_t size) : data_(data), size_(size) {}

    const uint32_t* data() const { return data_; }
    size_t size() const { return size_; }
    uint32_t operator[](size_t i) const { return data_[i]; }
    const uint32_t* begin() const { return data_; }
    const uint32_t* end() const { return data_ + size_; }

    friend bool operator==(const Row& a, const Row& b) {
      return std::equal(a.begin(), a.end(), b.begin(), b.end());
    }

   private:
    const uint32_t* data_;
    size_t size_;
  };

  ResultKeys() = default;
  // `rows` rows of `width` zeroed values.
  ResultKeys(size_t width, size_t rows)
      : width_(width), rows_(rows), values_(width * rows, 0) {}

  size_t size() const { return rows_; }
  Row operator[](size_t row) const {
    return Row(values_.data() + row * width_, width_);
  }
  uint32_t* mutable_row(size_t row) { return values_.data() + row * width_; }

  // The row count is compared apart from the values, which a zero width
  // leaves empty for any number of rows.
  friend bool operator==(const ResultKeys& a, const ResultKeys& b) = default;

 private:
  size_t width_ = 0;
  size_t rows_ = 0;
  std::vector<uint32_t> values_;
};

// A group-by result: one row per group, sorted by group key, with the
// keys row-major in one flat array. Carries the full distributive
// aggregate state per group; `sums` mirrors the SUM values for
// convenience, and Value(row, kind) answers any AggregateKind.
struct GroupedResult {
  std::vector<int> group_attrs;             // ascending attribute ids
  ResultKeys keys;                          // [row] parallel to group_attrs
  std::vector<double> sums;
  std::vector<AggregateState> aggregates;   // parallel to keys

  size_t num_rows() const { return sums.size(); }
  double Value(size_t row, AggregateKind kind) const {
    return aggregates[row].Value(kind);
  }
};

// The one check of caller-supplied selection constants, shared by
// Executor::TryExecute and BatchExecutor::TryExecuteBatch: one value per
// selected attribute, in ascending attribute order, each below its
// dimension's cardinality. A value outside the dimension would reach the
// key codec, which aborts on it or silently encodes a member that does not
// exist.
Status CheckSelectionValues(const CubeSchema& schema, const SliceQuery& query,
                            const std::vector<uint32_t>& selection_values);

class Executor {
 public:
  // The caller owns `catalog` and must keep it alive.
  explicit Executor(const Catalog* catalog);

  // Answers γ_A σ_B with the given selection constants. `selection_values`
  // is parallel to query.selection().ToVector() (ascending attribute ids).
  GroupedResult Execute(const SliceQuery& query,
                        const std::vector<uint32_t>& selection_values,
                        ExecutionStats* stats = nullptr) const;

  // Status-returning variant for service boundaries: rejects selection
  // values that fail CheckSelectionValues (instead of aborting) and crosses
  // the "executor.execute" fault point. On success stores the result in
  // *out.
  Status TryExecute(const SliceQuery& query,
                    const std::vector<uint32_t>& selection_values,
                    GroupedResult* out,
                    ExecutionStats* stats = nullptr) const;

  // Called after every executed query — Execute and TryExecute share the
  // notification path, so the frequency sketch sees all traffic no matter
  // which entry point drove the engine. The hook a resident advisor uses
  // to learn the observed workload without the engine depending on the
  // service layer. The observer must be thread-safe if the executor is
  // driven from multiple threads, must not call back into this Executor,
  // and must outlive it.
  using QueryObserver =
      std::function<void(const SliceQuery&, const ExecutionStats&)>;
  void SetQueryObserver(QueryObserver observer) {
    observer_ = std::move(observer);
  }

  // When on (the default), a plain view scan with a selection reads the
  // view's compressed columnar store whenever the catalog has one
  // attached; off forces the row store everywhere. A scan without a
  // selection, an index probe and a raw scan always use row storage (the
  // store skips rows only for predicates; index row ids reference the
  // view's row order). A sort-path group-by over a full row-storage scan
  // of at least kPooledSortMinRows rows runs on ThreadPool::Shared()
  // (SortGroupsOnPool), with the serial path's result and stats.
  void set_use_column_store(bool use) { use_column_store_ = use; }
  bool use_column_store() const { return use_column_store_; }

  // Reference implementation that always scans the raw fact table; used by
  // tests to validate Execute's answers.
  GroupedResult ExecuteNaive(const SliceQuery& query,
                             const std::vector<uint32_t>& selection_values)
      const;

  // One considered access path, with the planner's cost estimate.
  struct PlanChoice {
    bool use_raw = true;
    AttributeSet view;
    IndexKey index;  // empty = plain scan
    double estimated_cost = 0.0;
    bool chosen = false;
  };

  // All access paths the planner would consider for `query`, sorted by
  // estimated cost (the chosen one first). Does not execute anything.
  std::vector<PlanChoice> Explain(const SliceQuery& query) const;

  // Human-readable EXPLAIN output.
  std::string ExplainString(const SliceQuery& query) const;

 private:
  const Catalog* catalog_;
  QueryObserver observer_;
  bool use_column_store_ = true;
};

}  // namespace olapidx

#endif  // OLAPIDX_ENGINE_EXECUTOR_H_
