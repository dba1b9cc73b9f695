#include "engine/executor.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <span>
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

// Calls fn(path) for every access path the planner considers for `query`,
// in planning order, each with its estimated cost: the raw scan, then for
// each materialized view that answers the query its scan and every index
// whose key leads with selected attributes.
template <typename Fn>
void ForEachAccessPath(const Catalog& catalog, const SliceQuery& query,
                       const Fn& fn) {
  const CubeSchema& schema = catalog.schema();
  fn(PlannedAccess{true, AttributeSet(), nullptr, AttributeSet(),
                   static_cast<double>(catalog.fact().num_rows())});
  for (AttributeSet view_attrs : catalog.materialized_views()) {
    if (!query.AnswerableFrom(view_attrs)) continue;
    const MaterializedView& view = catalog.view(view_attrs);
    double view_rows = static_cast<double>(view.num_rows());
    fn(PlannedAccess{false, view_attrs, nullptr, AttributeSet(), view_rows});
    for (const ViewIndex& index : catalog.indexes(view_attrs)) {
      AttributeSet prefix =
          index.key().LongestSelectionPrefix(query.selection());
      if (prefix.empty()) continue;
      double distinct = catalog.HasView(prefix)
                            ? static_cast<double>(
                                  catalog.view(prefix).num_rows())
                            : EstimateDistinct(schema, prefix, view_rows);
      fn(PlannedAccess{false, view_attrs, &index, prefix,
                       view_rows / std::max(1.0, distinct)});
    }
  }
}

}  // namespace

PlannedAccess PlanAccess(const Catalog& catalog, const SliceQuery& query) {
  PlannedAccess plan;
  plan.estimated_cost = std::numeric_limits<double>::infinity();
  ForEachAccessPath(catalog, query, [&](const PlannedAccess& path) {
    if (path.estimated_cost < plan.estimated_cost) plan = path;
  });
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

std::vector<uint32_t> ProbePrefixValues(
    const PlannedAccess& plan, const SliceQuery& query,
    const std::vector<uint32_t>& selection_values) {
  std::vector<uint32_t> values;
  if (plan.index == nullptr) return values;
  const std::vector<int> sel_attrs = query.selection().ToVector();
  for (int a : plan.index->key().attrs()) {
    if (!plan.index_prefix.Contains(a)) break;
    const size_t at = static_cast<size_t>(
        std::lower_bound(sel_attrs.begin(), sel_attrs.end(), a) -
        sel_attrs.begin());
    values.push_back(selection_values[at]);
  }
  return values;
}

namespace {

// One member's share of a row-storage scan or probe: its predicates (a
// probe's residual ones) and group-by columns resolved to the plan's
// table's raw columns, and its accumulator.
struct RowMember {
  RowScan scan;
  GroupAccumulator acc;
  GroupedResult* result;
};

}  // namespace

PhysicalScan ScanForMembers(const Catalog& catalog, const PlannedAccess& plan,
                            std::span<const ScanMember> members,
                            ThreadPool& (*pool)()) {
  OLAPIDX_CHECK(!members.empty());
  for (const ScanMember& m : members) {
    OLAPIDX_CHECK(m.selection_values->size() ==
                  static_cast<size_t>(m.query->selection().size()));
  }
  const SliceQuery& first = *members.front().query;
  const std::vector<uint32_t>& first_values =
      *members.front().selection_values;
  PhysicalScan out;
  // The store pays only where it skips rows: for one member's selection.
  const ColumnStore* store =
      !plan.use_raw && plan.index == nullptr && members.size() == 1 &&
              !first.selection().empty()
          ? catalog.column_store(plan.view)
          : nullptr;
  if (store != nullptr) {
    GroupAccumulator acc = AccumulatorFor(catalog, plan, store, first);
    const std::vector<int> sel_attrs = first.selection().ToVector();
    std::vector<ColumnStore::Predicate> preds;
    preds.reserve(sel_attrs.size());
    for (size_t i = 0; i < sel_attrs.size(); ++i) {
      preds.push_back({sel_attrs[i], first_values[i]});
    }
    store->Scan(preds, first.group_by(),
                [&](size_t r, const uint32_t* dims,
                    const AggregateState& state) {
                  acc.AddDims(r, dims, state);
                });
    out.sorted_members = acc.sorts() ? 1 : 0;
    *members.front().result = acc.Finish();
    out.rows = store->num_rows();
    out.bytes_scanned = store->CompressedBytes();
    out.used_columnar = true;
    return out;
  }

  // Row storage: the fact table or the view's row store.
  const FactTable& fact = catalog.fact();
  const MaterializedView* view =
      plan.use_raw ? nullptr : &catalog.view(plan.view);
  const auto column = [&](int a) {
    return view == nullptr ? fact.column_data(a) : view->column_data(a);
  };
  const RowStates states = view == nullptr
                               ? RowStates(fact.measure_data())
                               : RowStates(view->aggregate_data());
  const size_t table_rows =
      view == nullptr ? fact.num_rows() : view->num_rows();
  std::vector<RowMember> hoisted;
  hoisted.reserve(members.size());
  for (const ScanMember& m : members) {
    RowMember row_member{RowScan{table_rows, {}, {}, states},
                         AccumulatorFor(catalog, plan, nullptr, *m.query),
                         m.result};
    const std::vector<int> sel_attrs = m.query->selection().ToVector();
    for (size_t i = 0; i < sel_attrs.size(); ++i) {
      // A probe's descent already satisfied its prefix attributes.
      if (plan.index_prefix.Contains(sel_attrs[i])) continue;
      row_member.scan.predicates.push_back(
          {column(sel_attrs[i]), (*m.selection_values)[i]});
    }
    for (int a : m.query->group_by().ToVector()) {
      row_member.scan.group_columns.push_back(column(a));
    }
    if (row_member.acc.sorts()) ++out.sorted_members;
    hoisted.push_back(std::move(row_member));
  }

  out.rows = table_rows;
  if (hoisted.size() == 1 && plan.index == nullptr &&
      hoisted.front().acc.sorts() && table_rows >= kPooledSortMinRows &&
      pool != nullptr && pool().num_threads() > 1) {
    *hoisted.front().result = SortGroupsOnPool(
        catalog.schema(), first.group_by(), hoisted.front().scan, pool());
  } else {
    states.Visit([&](auto state_of) {
      const auto add = [&](RowMember& m, size_t r) {
        if (m.scan.Matches(r)) {
          m.acc.AddRow(m.scan.group_columns.data(), r, state_of(r));
        }
      };
      const auto visit_rows = [&](const auto& feed) {
        if (plan.index != nullptr) {
          // The members of a probe share its prefix values.
          out.rows = plan.index->ScanPrefix(
              ProbePrefixValues(plan, first, first_values), feed);
        } else {
          for (size_t r = 0; r < table_rows; ++r) feed(r);
        }
      };
      // A lone member gets a loop of its own: behind a loop over members,
      // serve-cold's median request time (mostly index probes) read
      // 21-34% higher in three perfbench pairs (EXPERIMENTS.md E16e).
      if (hoisted.size() == 1) {
        RowMember& only = hoisted.front();
        visit_rows([&](size_t r) { add(only, r); });
      } else {
        visit_rows([&](size_t r) {
          for (RowMember& m : hoisted) add(m, r);
        });
      }
    });
    for (RowMember& m : hoisted) *m.result = m.acc.Finish();
  }
  const uint64_t row_bytes =
      view == nullptr
          ? static_cast<uint64_t>(catalog.schema().num_dimensions()) * 4 +
                sizeof(double)
          : static_cast<uint64_t>(plan.view.size()) * 4 +
                sizeof(AggregateState);
  out.bytes_scanned = out.rows * row_bytes;
  return out;
}

ExecutionStats StatsOf(const PlannedAccess& plan, const PhysicalScan& scan) {
  ExecutionStats stats;
  stats.rows_processed = scan.rows;
  stats.used_raw = plan.use_raw;
  stats.view = plan.use_raw ? AttributeSet() : plan.view;
  stats.index = plan.index != nullptr ? plan.index->key() : IndexKey();
  stats.used_columnar = scan.used_columnar;
  stats.bytes_scanned = scan.bytes_scanned;
  stats.estimated_cost = plan.estimated_cost;
  return stats;
}

GroupedResult Executor::Execute(
    const SliceQuery& query, const std::vector<uint32_t>& selection_values,
    ExecutionStats* stats) const {
  OLAPIDX_TRACE_SPAN("executor.execute");
  const PlannedAccess plan = PlanAccess(*catalog_, query);
  GroupedResult result;
  const ScanMember member{&query, &selection_values, &result};
  const PhysicalScan scan =
      ScanForMembers(*catalog_, plan, {&member, 1}, &ThreadPool::Shared);

  // One registry update per query (not per row): which counter the rows
  // land in classifies the chosen access path (raw scan vs. view scan vs.
  // index probe).
  OLAPIDX_METRIC_COUNTER(queries, "executor.queries");
  queries.Add(1);
  if (scan.sorted_members > 0) {
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
    raw_rows.Add(scan.rows);
  } else if (plan.index == nullptr) {
    OLAPIDX_METRIC_COUNTER(view_plans, "executor.plans_view_scan");
    OLAPIDX_METRIC_COUNTER(view_rows, "executor.rows_view_scanned");
    view_plans.Add(1);
    view_rows.Add(scan.rows);
    if (scan.used_columnar) {
      OLAPIDX_METRIC_COUNTER(columnar_plans, "executor.plans_columnar_scan");
      columnar_plans.Add(1);
    }
  } else {
    OLAPIDX_METRIC_COUNTER(index_plans, "executor.plans_index");
    OLAPIDX_METRIC_COUNTER(index_rows, "executor.rows_index_probed");
    index_plans.Add(1);
    index_rows.Add(scan.rows);
  }

  ExecutionStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = StatsOf(plan, scan);
  // Both entry points notify here, so the observed-workload sketch sees
  // traffic regardless of which variant drove the engine.
  if (observer_) observer_(query, *stats);
  return result;
}

Status CheckQueryInput(const CubeSchema& schema, const SliceQuery& query,
                       const std::vector<uint32_t>& selection_values) {
  for (int a : query.group_by().ToVector()) {
    if (a >= schema.num_dimensions()) {
      return Status::InvalidArgument(
          "query groups by attribute " + std::to_string(a) + " of a " +
          std::to_string(schema.num_dimensions()) + "-dimension schema");
    }
  }
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
  if (Status s = CheckQueryInput(catalog_->schema(), query, selection_values);
      !s.ok()) {
    return s;
  }
  *out = Execute(query, selection_values, stats);
  return Status::Ok();
}

std::vector<Executor::PlanChoice> Executor::Explain(
    const SliceQuery& query) const {
  std::vector<PlanChoice> out;
  ForEachAccessPath(*catalog_, query, [&](const PlannedAccess& path) {
    out.push_back(PlanChoice{
        path.use_raw, path.view,
        path.index != nullptr ? path.index->key() : IndexKey(),
        path.estimated_cost, false});
  });
  // Stable: equal costs keep planning order, so the front is PlanAccess's
  // first minimum.
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
