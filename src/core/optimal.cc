#include "core/optimal.h"

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "core/selection_state.h"

namespace olapidx {

namespace {

struct Item {
  StructureRef ref;
  double space = 0.0;
  // Benefit against the empty selection — an upper bound on the item's
  // benefit against any selection (benefits shrink as M grows). For an
  // index, computed as if its view were present (also optimistic).
  double root_benefit = 0.0;

  double Density() const { return root_benefit / space; }
};

class Solver {
 public:
  Solver(const QueryViewGraph& graph, double budget,
         const OptimalOptions& options)
      : graph_(graph), budget_(budget), options_(options) {}

  SelectionResult Run() {
    BuildItems();
    SeedIncumbent();
    SelectionState root(&graph_);
    view_excluded_.assign(graph_.num_views(), 0);
    completed_ = true;
    Dfs(0, root, budget_);

    SelectionResult result;
    result.initial_cost = SelectionState(&graph_).TotalCost();
    for (uint32_t q = 0; q < graph_.num_queries(); ++q) {
      result.total_frequency += graph_.query_frequency(q);
    }
    result.picks = best_picks_;
    result.pick_benefits.assign(best_picks_.size(), 0.0);
    // Replay the winning selection to split τ from maintenance.
    SelectionState replay(&graph_);
    for (const StructureRef& s : best_picks_) replay.ApplyStructure(s);
    result.final_cost = replay.TotalCost();
    result.total_maintenance = replay.TotalMaintenance();
    result.space_used = replay.SpaceUsed();
    result.candidates_evaluated = nodes_;
    result.proven_optimal = completed_;
    return result;
  }

 private:
  void BuildItems() {
    SelectionState empty(&graph_);
    // Per view: the view item followed by its index items (an index is only
    // selectable when its view precedes it on the search path).
    struct ViewGroup {
      std::vector<Item> items;
      double best_density = 0.0;
    };
    std::vector<ViewGroup> groups;
    for (uint32_t v = 0; v < graph_.num_views(); ++v) {
      ViewGroup g;
      Item view_item;
      view_item.ref = StructureRef{v, StructureRef::kNoIndex};
      view_item.space = graph_.view_space(v);
      view_item.root_benefit =
          empty.StructureBenefit(view_item.ref);
      g.items.push_back(view_item);

      std::vector<Item> index_items;
      for (int32_t k = 0; k < graph_.num_indexes(v); ++k) {
        Item it;
        it.ref = StructureRef{v, k};
        it.space = graph_.index_space(v, k);
        // Benefit as if the view were present: best-cost reduction offered
        // by the index alone.
        const std::span<const uint32_t> queries = graph_.ViewQueries(v);
        double b = 0.0;
        for (size_t pos = 0; pos < queries.size(); ++pos) {
          double c = graph_.IndexCostAt(v, k, pos);
          double cur = empty.QueryBestCost(queries[pos]);
          if (c < cur) {
            b += graph_.query_frequency(queries[pos]) * (cur - c);
          }
        }
        it.root_benefit = b - graph_.structure_maintenance(it.ref);
        if (it.root_benefit > 0.0) index_items.push_back(it);
      }
      std::sort(index_items.begin(), index_items.end(),
                [](const Item& a, const Item& b) {
                  return a.Density() > b.Density();
                });
      for (Item& it : index_items) g.items.push_back(it);

      // A view with no beneficial structure at all can be dropped.
      g.best_density = 0.0;
      for (const Item& it : g.items) {
        g.best_density = std::max(g.best_density, it.Density());
      }
      if (g.best_density > 0.0) groups.push_back(std::move(g));
    }
    std::sort(groups.begin(), groups.end(),
              [](const ViewGroup& a, const ViewGroup& b) {
                return a.best_density > b.best_density;
              });
    for (ViewGroup& g : groups) {
      for (Item& it : g.items) items_.push_back(it);
    }
    // Density-sorted order for the fractional bound.
    by_density_.resize(items_.size());
    for (size_t i = 0; i < items_.size(); ++i) by_density_[i] = i;
    std::sort(by_density_.begin(), by_density_.end(),
              [this](size_t a, size_t b) {
                return items_[a].Density() > items_[b].Density();
              });
  }

  // Valid incumbent: repeatedly apply the best single structure that fits.
  void SeedIncumbent() {
    SelectionState state(&graph_);
    double space_left = budget_;
    for (;;) {
      bool found = false;
      StructureRef best{};
      double best_ratio = 0.0;
      for (const Item& it : items_) {
        if (it.space > space_left || state.Selected(it.ref)) continue;
        if (!it.ref.is_view() && !state.ViewSelected(it.ref.view)) continue;
        double b = state.StructureBenefit(it.ref);
        if (b <= 0.0) continue;
        double ratio = b / it.space;
        if (!found || ratio > best_ratio) {
          found = true;
          best = it.ref;
          best_ratio = ratio;
        }
      }
      if (!found) break;
      state.ApplyStructure(best);
      space_left -= graph_.structure_space(best);
    }
    best_benefit_ = state.TotalBenefit();
    best_picks_ = state.picks();
  }

  // Fractional-knapsack upper bound on additional benefit from items at
  // positions >= pos with `space_left` budget.
  double Bound(size_t pos, double space_left) const {
    double bound = 0.0;
    for (size_t i : by_density_) {
      if (space_left <= 0.0) break;
      if (i < pos) continue;  // already decided
      const Item& it = items_[i];
      // Negative-net items (possible under the maintenance extension) can
      // be bounded at zero contribution.
      if (it.root_benefit <= 0.0) continue;
      if (!it.ref.is_view() && view_excluded_[it.ref.view]) continue;
      if (it.space <= space_left) {
        bound += it.root_benefit;
        space_left -= it.space;
      } else {
        bound += it.root_benefit * (space_left / it.space);
        space_left = 0.0;
      }
    }
    return bound;
  }

  void Dfs(size_t pos, const SelectionState& state, double space_left) {
    if (++nodes_ > options_.node_limit) {
      completed_ = false;
      return;
    }
    if (state.TotalBenefit() > best_benefit_) {
      best_benefit_ = state.TotalBenefit();
      best_picks_ = state.picks();
    }
    if (pos == items_.size()) return;
    if (state.TotalBenefit() + Bound(pos, space_left) <=
        best_benefit_ * (1.0 + 1e-12) + 1e-12) {
      return;
    }
    const Item& it = items_[pos];
    bool eligible = it.space <= space_left;
    if (!it.ref.is_view()) {
      eligible = eligible && state.ViewSelected(it.ref.view);
    }
    if (eligible) {
      SelectionState child = state;
      child.ApplyStructure(it.ref);
      Dfs(pos + 1, child, space_left - it.space);
      if (!completed_) return;
    }
    // Exclude branch.
    if (it.ref.is_view()) {
      view_excluded_[it.ref.view] = 1;
      Dfs(pos + 1, state, space_left);
      view_excluded_[it.ref.view] = 0;
    } else {
      Dfs(pos + 1, state, space_left);
    }
  }

  const QueryViewGraph& graph_;
  double budget_;
  OptimalOptions options_;
  std::vector<Item> items_;
  std::vector<size_t> by_density_;
  std::vector<uint8_t> view_excluded_;
  std::vector<StructureRef> best_picks_;
  double best_benefit_ = 0.0;
  uint64_t nodes_ = 0;
  bool completed_ = true;
};

}  // namespace

SelectionResult BranchAndBoundOptimal(const QueryViewGraph& graph,
                                      double space_budget,
                                      const OptimalOptions& options) {
  if (Status s = ValidateSelectionInput(graph, space_budget); !s.ok()) {
    return SelectionResult::Rejected(std::move(s));
  }
  Solver solver(graph, space_budget, options);
  return solver.Run();
}

namespace {

double PerfectBenefitOf(const QueryViewGraph& graph) {
  std::vector<double> best(graph.num_queries());
  for (uint32_t q = 0; q < graph.num_queries(); ++q) {
    best[q] = graph.query_default_cost(q);
  }
  for (uint32_t v = 0; v < graph.num_views(); ++v) {
    const std::span<const uint32_t> queries = graph.ViewQueries(v);
    for (size_t pos = 0; pos < queries.size(); ++pos) {
      double c = graph.ViewCostAt(v, pos);
      for (int32_t k = 0; k < graph.num_indexes(v); ++k) {
        c = std::min(c, graph.IndexCostAt(v, k, pos));
      }
      best[queries[pos]] = std::min(best[queries[pos]], c);
    }
  }
  double benefit = 0.0;
  for (uint32_t q = 0; q < graph.num_queries(); ++q) {
    benefit +=
        graph.query_frequency(q) * (graph.query_default_cost(q) - best[q]);
  }
  return benefit;
}

}  // namespace

StatusOr<double> UpperBoundBenefit(const QueryViewGraph& graph,
                                   double space_budget) {
  if (Status s = ValidateSelectionInput(graph, space_budget); !s.ok()) {
    return s;
  }
  SelectionState empty(&graph);
  // Per-structure optimistic benefits (indexes assume their view present),
  // filled fractionally by density.
  std::vector<std::pair<double, double>> items;  // (density, space)
  for (uint32_t v = 0; v < graph.num_views(); ++v) {
    double vb = empty.StructureBenefit(StructureRef{v,
                                                    StructureRef::kNoIndex});
    if (vb > 0.0) items.emplace_back(vb / graph.view_space(v),
                                     graph.view_space(v));
    const std::span<const uint32_t> queries = graph.ViewQueries(v);
    for (int32_t k = 0; k < graph.num_indexes(v); ++k) {
      double b = 0.0;
      for (size_t pos = 0; pos < queries.size(); ++pos) {
        double c = graph.IndexCostAt(v, k, pos);
        double cur = empty.QueryBestCost(queries[pos]);
        if (c < cur) b += graph.query_frequency(queries[pos]) * (cur - c);
      }
      b -= graph.structure_maintenance(StructureRef{v, k});
      if (b > 0.0) {
        items.emplace_back(b / graph.index_space(v, k),
                           graph.index_space(v, k));
      }
    }
  }
  std::sort(items.begin(), items.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  double bound = 0.0;
  double left = space_budget;
  for (const auto& [density, space] : items) {
    if (left <= 0.0) break;
    double take = std::min(space, left);
    bound += density * take;
    left -= take;
  }
  // With many overlapping indexes the knapsack relaxation double-counts
  // the same query reductions; the perfect benefit caps that.
  return std::min(bound, PerfectBenefitOf(graph));
}

StatusOr<double> PerfectBenefit(const QueryViewGraph& graph) {
  if (Status s = ValidateSelectionInput(graph, 0.0); !s.ok()) return s;
  return PerfectBenefitOf(graph);
}

}  // namespace olapidx
