#include "engine/catalog.h"

namespace olapidx {

Catalog::Catalog(const FactTable* fact) : fact_(fact) {
  OLAPIDX_CHECK(fact != nullptr);
  entries_.resize(static_cast<size_t>(1)
                  << fact->schema().num_dimensions());
}

const Catalog::Entry* Catalog::Find(AttributeSet attrs) const {
  OLAPIDX_CHECK(attrs.mask() < entries_.size());
  const Entry& e = entries_[attrs.mask()];
  return e.view != nullptr ? &e : nullptr;
}

Catalog::Entry* Catalog::Find(AttributeSet attrs) {
  OLAPIDX_CHECK(attrs.mask() < entries_.size());
  Entry& e = entries_[attrs.mask()];
  return e.view != nullptr ? &e : nullptr;
}

bool Catalog::HasView(AttributeSet attrs) const {
  return Find(attrs) != nullptr;
}

const MaterializedView& Catalog::view(AttributeSet attrs) const {
  const Entry* e = Find(attrs);
  OLAPIDX_CHECK(e != nullptr);
  return *e->view;
}

size_t Catalog::MaterializeView(AttributeSet attrs) {
  if (const Entry* existing = Find(attrs)) {
    return existing->view->num_rows();
  }
  // Prefer rolling up from the smallest materialized strict superset.
  const Entry* best_parent = nullptr;
  for (AttributeSet parent : order_) {
    if (!attrs.IsSubsetOf(parent) || parent == attrs) continue;
    const Entry& pe = entries_[parent.mask()];
    if (best_parent == nullptr ||
        pe.view->num_rows() < best_parent->view->num_rows()) {
      best_parent = &pe;
    }
  }
  Entry& e = entries_[attrs.mask()];
  if (best_parent != nullptr) {
    e.view = std::make_unique<MaterializedView>(
        MaterializedView::FromView(*best_parent->view, attrs));
    // A roll-up holds the fact rows its parent holds: rows appended since
    // a stale parent's last refresh arrive with the next refresh.
    e.built_through = best_parent->built_through;
  } else {
    e.view = std::make_unique<MaterializedView>(
        MaterializedView::FromFactTable(*fact_, attrs));
    e.built_through = fact_->num_rows();
  }
  order_.push_back(attrs);
  return e.view->num_rows();
}

Status Catalog::BuildIndex(AttributeSet view_attrs, const IndexKey& key) {
  Entry* e = Find(view_attrs);
  const std::vector<std::string>& names = schema().names();
  if (e == nullptr) {
    return Status::FailedPrecondition(
        "cannot build an index on unmaterialized view '" +
        view_attrs.ToString(names) + "'");
  }
  if (key.empty()) {
    return Status::InvalidArgument("empty index key");
  }
  if (!key.AsSet().IsSubsetOf(view_attrs)) {
    return Status::InvalidArgument("index key '" + key.ToString(names) +
                                   "' uses attributes outside view '" +
                                   view_attrs.ToString(names) + "'");
  }
  for (const ViewIndex& existing : e->indexes) {
    if (existing.key() == key) return Status::Ok();
  }
  e->indexes.emplace_back(*e->view, key);
  return Status::Ok();
}

const std::vector<ViewIndex>& Catalog::indexes(AttributeSet attrs) const {
  const Entry* e = Find(attrs);
  OLAPIDX_CHECK(e != nullptr);
  return e->indexes;
}

Status Catalog::CompressView(AttributeSet attrs) {
  Entry* e = Find(attrs);
  if (e == nullptr) {
    return Status::FailedPrecondition(
        "cannot compress unmaterialized view '" +
        attrs.ToString(schema().names()) + "'");
  }
  e->column_store =
      std::make_unique<ColumnStore>(ColumnStore::FromView(*e->view));
  return Status::Ok();
}

size_t Catalog::CompressAllViews() {
  size_t built = 0;
  for (AttributeSet attrs : order_) {
    OLAPIDX_CHECK(CompressView(attrs).ok());
    ++built;
  }
  return built;
}

const ColumnStore* Catalog::column_store(AttributeSet attrs) const {
  const Entry* e = Find(attrs);
  OLAPIDX_CHECK(e != nullptr);
  return e->column_store.get();
}

Catalog::RefreshStats Catalog::RefreshAfterAppend() {
  RefreshStats stats;
  size_t now = fact_->num_rows();
  for (AttributeSet attrs : order_) {
    Entry& e = entries_[attrs.mask()];
    if (e.built_through >= now) continue;
    const MaterializedView::DeltaResult delta =
        e.view->ApplyDelta(*fact_, e.built_through, now);
    stats.groups_touched += delta.groups_touched;
    stats.delta_rows_scanned += now - e.built_through;
    e.built_through = now;
    ++stats.views_refreshed;
    // Inserted groups shift the row ids the indexes hold; re-key them.
    for (ViewIndex& index : e.indexes) {
      index.Rekey(*e.view, delta.inserted_rows);
      ++stats.indexes_rebuilt;
      stats.index_entries_rebuilt +=
          static_cast<double>(index.num_entries());
    }
    // A columnar store holds the view's rows in the view's order;
    // re-encode it in one pass.
    if (e.column_store != nullptr) {
      e.column_store =
          std::make_unique<ColumnStore>(ColumnStore::FromView(*e.view));
    }
  }
  return stats;
}

double Catalog::TotalSpaceRows() const {
  double total = 0.0;
  for (AttributeSet attrs : order_) {
    const Entry& e = entries_[attrs.mask()];
    total += static_cast<double>(e.view->num_rows());
    for (const ViewIndex& idx : e.indexes) {
      total += static_cast<double>(idx.num_entries());
    }
  }
  return total;
}

}  // namespace olapidx
