#include "core/column_pricer.h"

#include <algorithm>
#include <limits>

namespace olapidx {

bool ColumnPricer::Load(const QueryViewGraph& graph,
                        const SelectionState& state, uint32_t v) {
  const std::vector<uint32_t>& queries = graph.ViewQueries(v);
  const size_t n = queries.size();
  const size_t num_cols = graph.num_cols(v);
  if (graph.num_indexes(v) == 0 || n == 0 ||
      static_cast<double>(n) <
          kMinPositionsPerColumn * static_cast<double>(num_cols)) {
    return false;
  }
  graph_ = &graph;
  view_ = v;
  // Bucket the positions by column (a counting sort: col_end_[c] ends as
  // the end of column c's run in entries_), summing f·cur on the way. The
  // sum is not finite if one term is not, and below a quarter of the
  // largest double the error bound's sums cannot overflow (DESIGN.md §4).
  const std::vector<uint32_t>& col_of_pos = graph.col_of_pos(v);
  col_end_.assign(num_cols, 0);
  for (size_t pos = 0; pos < n; ++pos) ++col_end_[col_of_pos[pos]];
  uint32_t running = 0;
  for (uint32_t& end : col_end_) {
    running += end;
    end = running - end;  // the column's begin, advanced by the scatter
  }
  entries_.resize(n);
  double mass = 0.0;
  for (size_t pos = 0; pos < n; ++pos) {
    const uint32_t q = queries[pos];
    const double cur = state.QueryBestCost(q);
    const double f = graph.query_frequency(q);
    mass += f * cur;
    entries_[col_end_[col_of_pos[pos]]++] =
        Entry{graph.ViewCostAt(v, pos), cur, f};
  }
  if (!(mass <= std::numeric_limits<double>::max() / 4)) return false;

  groups_.clear();
  cur_.resize(n);
  f0_.resize(n);
  f1_.resize(n);
  uint32_t col_begin = 0;
  for (uint32_t col = 0; col < num_cols; ++col) {
    const uint32_t col_end = col_end_[col];
    std::sort(entries_.begin() + col_begin, entries_.begin() + col_end,
              [](const Entry& a, const Entry& b) {
                if (a.view_cost != b.view_cost) {
                  return a.view_cost < b.view_cost;
                }
                return a.cur < b.cur;
              });
    for (uint32_t begin = col_begin; begin < col_end;) {
      uint32_t end = begin + 1;
      while (end < col_end &&
             entries_[end].view_cost == entries_[begin].view_cost) {
        ++end;
      }
      // Suffix sums from the top: F(x) over cur > x is one recursive sum
      // of the group's largest curs, so its error is relative to itself.
      double s0 = 0.0;
      double s1 = 0.0;
      for (uint32_t i = end; i-- > begin;) {
        const Entry& e = entries_[i];
        cur_[i] = e.cur;
        s0 += e.frequency;
        s1 += e.frequency * e.cur;
        f0_[i] = s0;
        f1_[i] = s1;
      }
      groups_.push_back(Group{col, begin, end, entries_[begin].view_cost,
                              cur_[end - 1], QueryViewGraph::kInfiniteCost,
                              0.0});
      begin = end;
    }
    col_begin = col_end;
  }
  const double nd = static_cast<double>(n);
  err_scale_ = (8.0 * nd + 16.0) * std::numeric_limits<double>::epsilon() / 2;
  err_floor_ = 4.0 * nd * std::numeric_limits<double>::denorm_min();
  return true;
}

size_t ColumnPricer::Above(const Group& g, double x) const {
  const double* first = cur_.data() + g.begin;
  return static_cast<size_t>(
      std::upper_bound(first, cur_.data() + g.end, x) - cur_.data());
}

void ColumnPricer::SetOffered(Group& g, double offered) const {
  g.offered = offered;
  g.offered_term = 0.0;
  if (g.max_cur > offered) {
    const size_t j = Above(g, offered);
    g.offered_term = f1_[j] - offered * f0_[j];
  }
}

void ColumnPricer::OfferViewCost() {
  for (Group& g : groups_) SetOffered(g, g.view_cost);
}

void ColumnPricer::OfferNothing() {
  for (Group& g : groups_) SetOffered(g, QueryViewGraph::kInfiniteCost);
}

void ColumnPricer::OfferIndex(int32_t k) {
  const double* row = graph_->IndexCostRow(view_, k);
  for (Group& g : groups_) {
    const double c = row[g.col];
    if (c < g.offered) SetOffered(g, c);
  }
}

ColumnPrice ColumnPricer::Price(int32_t k, double maintenance) const {
  const double* row = graph_->IndexCostRow(view_, k);
  double sum = 0.0;
  double mass = 0.0;  // Σ f·cur over the gaining positions
  bool gains = false;
  for (const Group& g : groups_) {
    const double c = row[g.col];
    if (!(c < g.offered) || !(g.max_cur > c)) continue;
    const size_t i = Above(g, c);
    sum += (f1_[i] - c * f0_[i]) - g.offered_term;
    mass += f1_[i];
    gains = true;
  }
  // No gaining position: the per-position loop adds only exact zeros.
  if (!gains) return ColumnPrice{0.0 - maintenance, 0.0};
  return ColumnPrice{sum - maintenance,
                     err_scale_ * (mass + maintenance) + err_floor_};
}

}  // namespace olapidx
