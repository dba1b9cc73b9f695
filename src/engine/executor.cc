#include "engine/executor.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>

#include "common/fault_injection.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "cost/analytical_model.h"
#include "engine/group_accumulator.h"

namespace olapidx {

namespace {

// Estimated number of distinct combinations of `attrs` within a table of
// `rows` rows (independence assumption; exact when the catalog happens to
// have the subcube materialized — the caller handles that case).
double EstimateDistinct(const CubeSchema& schema, AttributeSet attrs,
                        double rows) {
  if (attrs.empty()) return 1.0;
  return ExpectedDistinct(schema.DomainSize(attrs), rows);
}

// The full scan of `table`, the fact table or a view's row store, whose
// rows' states `states` reads.
template <typename Table>
RowScan FullScan(const Table& table, RowStates states,
                 const std::vector<int>& sel_attrs,
                 const std::vector<uint32_t>& selection_values,
                 const std::vector<int>& group_attrs) {
  RowScan scan{table.num_rows(), {}, {}, states};
  for (size_t i = 0; i < sel_attrs.size(); ++i) {
    scan.predicates.push_back(
        {table.column_data(sel_attrs[i]), selection_values[i]});
  }
  for (int a : group_attrs) scan.group_columns.push_back(table.column_data(a));
  return scan;
}

}  // namespace

PlannedAccess PlanAccess(const Catalog& catalog, const SliceQuery& query) {
  const CubeSchema& schema = catalog.schema();
  PlannedAccess plan;
  plan.estimated_cost = static_cast<double>(catalog.fact().num_rows());

  for (AttributeSet view_attrs : catalog.materialized_views()) {
    if (!query.AnswerableFrom(view_attrs)) continue;
    const MaterializedView& view = catalog.view(view_attrs);
    double view_rows = static_cast<double>(view.num_rows());
    if (view_rows < plan.estimated_cost) {
      plan = PlannedAccess{false, view_attrs, nullptr, AttributeSet(),
                           view_rows};
    }
    for (const ViewIndex& index : catalog.indexes(view_attrs)) {
      AttributeSet prefix =
          index.key().LongestSelectionPrefix(query.selection());
      if (prefix.empty()) continue;
      double distinct = catalog.HasView(prefix)
                            ? static_cast<double>(
                                  catalog.view(prefix).num_rows())
                            : EstimateDistinct(schema, prefix, view_rows);
      double est = view_rows / std::max(1.0, distinct);
      if (est < plan.estimated_cost) {
        plan = PlannedAccess{false, view_attrs, &index, prefix, est};
      }
    }
  }
  return plan;
}

std::vector<int> ScanOrder(const PlannedAccess& plan) {
  if (plan.use_raw) return {};
  if (plan.index != nullptr) return plan.index->key().ToVector();
  return plan.view.ToVector();
}

Executor::Executor(const Catalog* catalog) : catalog_(catalog) {
  OLAPIDX_CHECK(catalog != nullptr);
}

GroupedResult Executor::Execute(
    const SliceQuery& query, const std::vector<uint32_t>& selection_values,
    ExecutionStats* stats) const {
  OLAPIDX_TRACE_SPAN("executor.execute");
  const CubeSchema& schema = catalog_->schema();
  std::vector<int> sel_attrs = query.selection().ToVector();
  OLAPIDX_CHECK(selection_values.size() == sel_attrs.size());
  // Selection value per attribute id.
  std::vector<uint32_t> sel_value(
      static_cast<size_t>(schema.num_dimensions()), 0);
  for (size_t i = 0; i < sel_attrs.size(); ++i) {
    sel_value[static_cast<size_t>(sel_attrs[i])] = selection_values[i];
  }
  const std::vector<int> group_attrs = query.group_by().ToVector();

  PlannedAccess plan = PlanAccess(*catalog_, query);

  // ---- Execute the chosen path. ----
  //
  // Selection predicates and group-by columns are resolved to raw column
  // pointers once per query, not once per row — the scan loops below
  // touch no per-row indirection beyond the columns themselves. A view
  // scan reads the view's column store only to apply a selection: the
  // store skips rows only for predicates, and without one it decodes
  // every row and rebuilds every state, where the row store reads them.
  const ColumnStore* store =
      !plan.use_raw && plan.index == nullptr && use_column_store_ &&
              !query.selection().empty()
          ? catalog_->column_store(plan.view)
          : nullptr;
  GroupAccumulator acc = AccumulatorFor(*catalog_, plan, store, query);
  std::optional<GroupedResult> pooled;
  uint64_t rows_processed = 0;
  uint64_t bytes_scanned = 0;
  bool used_columnar = false;

  if (plan.index == nullptr && store == nullptr) {
    // A full scan of row storage: the fact table or the view's row store.
    const FactTable& fact = catalog_->fact();
    const MaterializedView* view =
        plan.use_raw ? nullptr : &catalog_->view(plan.view);
    const RowScan scan =
        plan.use_raw ? FullScan(fact, RowStates(fact.measure_data()),
                                sel_attrs, selection_values, group_attrs)
                     : FullScan(*view, RowStates(view->aggregate_data()),
                                sel_attrs, selection_values, group_attrs);
    const uint64_t row_bytes =
        plan.use_raw
            ? static_cast<uint64_t>(schema.num_dimensions()) * 4 + 8
            : static_cast<uint64_t>(plan.view.ToVector().size()) * 4 +
                  sizeof(AggregateState);
    // Only a query that may fan out touches, and so starts, the pool.
    if (acc.sorts() && scan.rows >= kPooledSortMinRows &&
        ThreadPool::Shared().num_threads() > 1) {
      pooled = SortGroupsOnPool(schema, query.group_by(), scan,
                                ThreadPool::Shared());
    } else {
      scan.states.Visit([&](auto state_of) {
        for (size_t r = 0; r < scan.rows; ++r) {
          if (scan.Matches(r)) {
            acc.AddRow(scan.group_columns.data(), r, state_of(r));
          }
        }
      });
    }
    rows_processed = scan.rows;
    bytes_scanned = rows_processed * row_bytes;
  } else if (plan.index == nullptr) {
    used_columnar = true;
    std::vector<ColumnStore::Predicate> preds;
    preds.reserve(sel_attrs.size());
    for (size_t i = 0; i < sel_attrs.size(); ++i) {
      preds.push_back({sel_attrs[i], selection_values[i]});
    }
    // Only matching rows are visited, but the scan's cost is still the
    // view's row count: the paper's measure.
    store->Scan(preds, query.group_by(),
                [&](size_t r, const uint32_t* dims,
                    const AggregateState& state) {
                  acc.AddDims(r, dims, state);
                });
    rows_processed = store->num_rows();
    bytes_scanned = store->CompressedBytes();
  } else {
    const MaterializedView& view = catalog_->view(plan.view);
    // Prefix values in index-key order for the matched prefix; rows the
    // probe returns already satisfy the prefix attributes, so only the
    // residual selection is re-checked.
    std::vector<uint32_t> prefix_values;
    std::vector<RowScan::Predicate> preds;
    for (int a : plan.index->key().attrs()) {
      if (!plan.index_prefix.Contains(a)) break;
      prefix_values.push_back(sel_value[static_cast<size_t>(a)]);
    }
    for (size_t i = 0; i < sel_attrs.size(); ++i) {
      if (plan.index_prefix.Contains(sel_attrs[i])) continue;
      preds.push_back({view.column_data(sel_attrs[i]), selection_values[i]});
    }
    std::vector<const uint32_t*> gcols;
    gcols.reserve(group_attrs.size());
    for (int a : group_attrs) gcols.push_back(view.column_data(a));
    const AggregateState* states = view.aggregate_data();
    rows_processed += plan.index->ScanPrefix(
        prefix_values, [&](uint32_t r) {
          for (const RowScan::Predicate& p : preds) {
            if (p.column[r] != p.value) return;
          }
          acc.AddRow(gcols.data(), r, states[r]);
        });
    bytes_scanned =
        rows_processed *
        (static_cast<uint64_t>(view.attrs().ToVector().size()) * 4 +
         sizeof(AggregateState));
  }

  // One registry update per query (not per row): the row counts were
  // accumulated locally above, and which counter they land in classifies
  // the chosen access path (raw scan vs. view scan vs. index probe).
  OLAPIDX_METRIC_COUNTER(queries, "executor.queries");
  queries.Add(1);
  if (acc.sorts()) {
    OLAPIDX_METRIC_COUNTER(sorted, "executor.aggregations_sorted");
    sorted.Add(1);
  } else {
    OLAPIDX_METRIC_COUNTER(hashed, "executor.aggregations_hashed");
    hashed.Add(1);
  }
  if (plan.use_raw) {
    OLAPIDX_METRIC_COUNTER(raw_plans, "executor.plans_raw");
    OLAPIDX_METRIC_COUNTER(raw_rows, "executor.rows_raw_scanned");
    raw_plans.Add(1);
    raw_rows.Add(rows_processed);
  } else if (plan.index == nullptr) {
    OLAPIDX_METRIC_COUNTER(view_plans, "executor.plans_view_scan");
    OLAPIDX_METRIC_COUNTER(view_rows, "executor.rows_view_scanned");
    view_plans.Add(1);
    view_rows.Add(rows_processed);
    if (used_columnar) {
      OLAPIDX_METRIC_COUNTER(columnar_plans, "executor.plans_columnar_scan");
      columnar_plans.Add(1);
    }
  } else {
    OLAPIDX_METRIC_COUNTER(index_plans, "executor.plans_index");
    OLAPIDX_METRIC_COUNTER(index_rows, "executor.rows_index_probed");
    index_plans.Add(1);
    index_rows.Add(rows_processed);
  }

  ExecutionStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  stats->rows_processed = rows_processed;
  stats->used_raw = plan.use_raw;
  stats->view = plan.use_raw ? AttributeSet() : plan.view;
  stats->index = plan.index != nullptr ? plan.index->key() : IndexKey();
  stats->used_columnar = used_columnar;
  stats->bytes_scanned = bytes_scanned;
  stats->estimated_cost = plan.estimated_cost;
  // Both entry points notify here, so the observed-workload sketch sees
  // traffic regardless of which variant drove the engine.
  if (observer_) observer_(query, *stats);
  return pooled ? std::move(*pooled) : acc.Finish();
}

Status CheckSelectionValues(const CubeSchema& schema, const SliceQuery& query,
                            const std::vector<uint32_t>& selection_values) {
  const std::vector<int> attrs = query.selection().ToVector();
  if (selection_values.size() != attrs.size()) {
    return Status::InvalidArgument(
        "query selects " + std::to_string(attrs.size()) +
        " attribute(s) but " + std::to_string(selection_values.size()) +
        " selection value(s) were supplied");
  }
  for (size_t i = 0; i < attrs.size(); ++i) {
    if (attrs[i] >= schema.num_dimensions()) {
      return Status::InvalidArgument(
          "query selects attribute " + std::to_string(attrs[i]) +
          " of a " + std::to_string(schema.num_dimensions()) +
          "-dimension schema");
    }
    const Dimension& dim = schema.dimension(attrs[i]);
    if (selection_values[i] >= dim.cardinality) {
      return Status::InvalidArgument(
          "selection value " + std::to_string(selection_values[i]) +
          " is out of range for " + dim.name + " (" +
          std::to_string(dim.cardinality) + " members)");
    }
  }
  return Status::Ok();
}

Status Executor::TryExecute(const SliceQuery& query,
                            const std::vector<uint32_t>& selection_values,
                            GroupedResult* out,
                            ExecutionStats* stats) const {
  OLAPIDX_CHECK(out != nullptr);
  OLAPIDX_FAULT_POINT("executor.execute");
  if (Status s = CheckSelectionValues(catalog_->schema(), query,
                                      selection_values);
      !s.ok()) {
    return s;
  }
  *out = Execute(query, selection_values, stats);
  return Status::Ok();
}

std::vector<Executor::PlanChoice> Executor::Explain(
    const SliceQuery& query) const {
  const CubeSchema& schema = catalog_->schema();
  std::vector<PlanChoice> out;
  PlanChoice raw;
  raw.use_raw = true;
  raw.estimated_cost = static_cast<double>(catalog_->fact().num_rows());
  out.push_back(raw);
  for (AttributeSet view_attrs : catalog_->materialized_views()) {
    if (!query.AnswerableFrom(view_attrs)) continue;
    const MaterializedView& view = catalog_->view(view_attrs);
    double view_rows = static_cast<double>(view.num_rows());
    out.push_back(PlanChoice{false, view_attrs, IndexKey(), view_rows,
                             false});
    for (const ViewIndex& index : catalog_->indexes(view_attrs)) {
      AttributeSet prefix =
          index.key().LongestSelectionPrefix(query.selection());
      if (prefix.empty()) continue;
      double distinct =
          catalog_->HasView(prefix)
              ? static_cast<double>(catalog_->view(prefix).num_rows())
              : EstimateDistinct(schema, prefix, view_rows);
      out.push_back(PlanChoice{false, view_attrs, index.key(),
                               view_rows / std::max(1.0, distinct),
                               false});
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const PlanChoice& a, const PlanChoice& b) {
                     return a.estimated_cost < b.estimated_cost;
                   });
  if (!out.empty()) out.front().chosen = true;
  return out;
}

std::string Executor::ExplainString(const SliceQuery& query) const {
  const CubeSchema& schema = catalog_->schema();
  std::string out =
      "EXPLAIN " + query.ToString(schema.names()) + "\n";
  for (const PlanChoice& p : Explain(query)) {
    out += p.chosen ? "  -> " : "     ";
    if (p.use_raw) {
      out += "scan raw fact table";
    } else if (p.index.empty()) {
      out += "scan " + p.view.ToString(schema.names());
    } else {
      out += "index " + p.index.ToString(schema.names()) + " on " +
             p.view.ToString(schema.names());
    }
    char buf[48];
    std::snprintf(buf, sizeof(buf), "  (est. %.1f rows)", p.estimated_cost);
    out += buf;
    out += "\n";
  }
  return out;
}

GroupedResult Executor::ExecuteNaive(
    const SliceQuery& query,
    const std::vector<uint32_t>& selection_values) const {
  const CubeSchema& schema = catalog_->schema();
  std::vector<int> sel_attrs = query.selection().ToVector();
  OLAPIDX_CHECK(selection_values.size() == sel_attrs.size());
  GroupAccumulator acc(schema, query.group_by());
  const FactTable& fact = catalog_->fact();
  std::vector<const uint32_t*> gcols;
  for (int a : query.group_by().ToVector()) {
    gcols.push_back(fact.column_data(a));
  }
  for (size_t r = 0; r < fact.num_rows(); ++r) {
    bool match = true;
    for (size_t i = 0; i < sel_attrs.size(); ++i) {
      if (fact.dim(r, sel_attrs[i]) != selection_values[i]) {
        match = false;
        break;
      }
    }
    if (!match) continue;
    acc.AddRow(gcols.data(), r, AggregateState::OfMeasure(fact.measure(r)));
  }
  return acc.Finish();
}

}  // namespace olapidx
