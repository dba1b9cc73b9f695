// Catalog: the set of materialized structures — which subcubes exist, with
// which indexes — plus the raw fact table. The executor plans against it;
// benches and examples populate it from an Advisor recommendation.

#ifndef OLAPIDX_ENGINE_CATALOG_H_
#define OLAPIDX_ENGINE_CATALOG_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "engine/column_store.h"
#include "engine/fact_table.h"
#include "engine/materialized_view.h"
#include "engine/view_index.h"

namespace olapidx {

class Catalog {
 public:
  // The catalog keeps a pointer to `fact`; the caller owns it and must keep
  // it alive for the catalog's lifetime.
  explicit Catalog(const FactTable* fact);

  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  const FactTable& fact() const { return *fact_; }
  const CubeSchema& schema() const { return fact_->schema(); }

  bool HasView(AttributeSet attrs) const;
  const MaterializedView& view(AttributeSet attrs) const;

  // Materializes the subcube, rolling up from the smallest materialized
  // ancestor when one exists (falling back to the fact table). A roll-up
  // holds the fact rows its parent holds, so rows a stale parent lacks
  // arrive with the next RefreshAfterAppend. No-op if already
  // materialized. Returns the view's row count.
  size_t MaterializeView(AttributeSet attrs);

  // Builds an index on a materialized view. No-op (OK) for an exact
  // duplicate. Fails with FailedPrecondition when the view is not
  // materialized and InvalidArgument when the key uses attributes outside
  // the view — both reachable from user-authored design files, so they
  // are rejected rather than aborted on.
  Status BuildIndex(AttributeSet view_attrs, const IndexKey& key);

  const std::vector<ViewIndex>& indexes(AttributeSet attrs) const;

  // All materialized view attribute sets, in materialization order.
  const std::vector<AttributeSet>& materialized_views() const {
    return order_;
  }

  // ---- Compressed columnar representation ----
  //
  // A view can additionally carry a ColumnStore — a second, compressed
  // representation of the same rows. The row store stays authoritative
  // (roll-ups, deltas, and index row ids all reference it); the executors
  // read the store, when attached, for a view scan of one query with a
  // selection, where it skips rows.

  // Builds (or rebuilds) the columnar store for a materialized view.
  // Fails with FailedPrecondition when the view is not materialized.
  Status CompressView(AttributeSet attrs);
  // Compresses every materialized view; returns how many were built.
  size_t CompressAllViews();
  // The view's columnar store, or nullptr when none is attached.
  const ColumnStore* column_store(AttributeSet attrs) const;

  // Space in the paper's units: Σ view rows + Σ index leaf entries.
  double TotalSpaceRows() const;

  // ---- Incremental maintenance ----
  //
  // Each materialized structure remembers the fact-table watermark it was
  // built through; a roll-up inherits its parent's. After the caller
  // appends rows to the fact table, RefreshAfterAppend() merges the delta
  // into every stale view (MaterializedView::ApplyDelta) and re-keys its
  // indexes (ViewIndex::Rekey), each in O(size + d log d) for d delta
  // groups, and re-encodes its column store. A refreshed view is its
  // pre-append rows with each delta group's aggregate merged in once. The
  // cost stays proportional to structure size; the returned work
  // statistics are what the update-aware selection extension models as
  // maintenance cost.

  struct RefreshStats {
    size_t views_refreshed = 0;
    size_t groups_touched = 0;      // view groups merged or inserted
    size_t delta_rows_scanned = 0;  // fact rows folded in, summed over views
    size_t indexes_rebuilt = 0;     // indexes re-keyed
    double index_entries_rebuilt = 0.0;  // entries of those indexes
  };

  RefreshStats RefreshAfterAppend();

 private:
  struct Entry {
    std::unique_ptr<MaterializedView> view;
    std::vector<ViewIndex> indexes;
    // Optional compressed columnar representation (see CompressView).
    std::unique_ptr<ColumnStore> column_store;
    // Fact rows incorporated into this view so far.
    size_t built_through = 0;
  };

  const Entry* Find(AttributeSet attrs) const;
  Entry* Find(AttributeSet attrs);

  const FactTable* fact_;
  // Indexed by attribute-set mask; slots are null until materialized.
  std::vector<Entry> entries_;
  std::vector<AttributeSet> order_;
};

}  // namespace olapidx

#endif  // OLAPIDX_ENGINE_CATALOG_H_
