// ColumnPricer: prices one view's single-index increments per cost column
// instead of per query position (DESIGN.md §4).
//
// The cost of an index for a query depends only on the query's column in
// the view's cost table (QueryViewGraph::col_of_pos), so within one group
// of positions sharing a column and a view scan cost, an index's cost c and
// the cost o a bundle already offers are constants. Only each query's
// current best cost `cur` and frequency f vary. With the group sorted by
// cur and suffix sums F0(x) = Σ f and F1(x) = Σ f·cur over the positions
// with cur > x, the group adds
//
//   [F1(c) − c·F0(c)] − [F1(o) − o·F0(o)]
//
// to the index's increment: one binary search per (index, group) instead
// of one term per (index, position). The sum runs in another order than
// the per-position loop, so every price carries a certified bound on its
// distance from that loop's value; the callers re-run the loop wherever
// the bound leaves a decision open, which keeps every pick bit-identical.

#ifndef OLAPIDX_CORE_COLUMN_PRICER_H_
#define OLAPIDX_CORE_COLUMN_PRICER_H_

#include <cstdint>
#include <vector>

#include "core/query_view_graph.h"
#include "core/selection_state.h"

namespace olapidx {

// An index's increment priced by column: `value` is within `err` of what
// the per-position loop computes for the same index and state.
struct ColumnPrice {
  double value = 0.0;
  double err = 0.0;
};

class ColumnPricer {
 public:
  // A view takes the column path only with at least this many positions
  // per column; below it, grouping and the per-group binary searches cost
  // more than the positions they replace. On the dense dim-7 advise graph
  // the per-position path was faster at 3.4 positions per column and the
  // column path at 5.1 (EXPERIMENTS.md E11b).
  static constexpr double kMinPositionsPerColumn = 4.0;

  // Groups v's positions by (column, view cost) and sorts each group by
  // its queries' current best cost in `state`. Returns false, and the
  // caller takes the per-position path, when v has no indexes or
  // positions, too few positions per column, or an f·cur that is not
  // finite (a +inf default cost, say). Reuses its buffers across calls.
  bool Load(const QueryViewGraph& graph, const SelectionState& state,
            uint32_t v);

  // Groups of the loaded view: the cells one Price call reads.
  size_t num_groups() const { return groups_.size(); }

  // Sets each group's offered cost: its view cost (growth from the bare
  // view), or nothing (single indexes on a selected view, whose queries
  // already pay at most the view cost).
  void OfferViewCost();
  void OfferNothing();
  // Lowers each group's offered cost to index k's where k is cheaper:
  // index k joined the bundle.
  void OfferIndex(int32_t k);

  // Index k's increment against the offered costs, net of `maintenance`.
  ColumnPrice Price(int32_t k, double maintenance) const;

 private:
  struct Entry {
    double view_cost;
    double cur;
    double frequency;
  };
  struct Group {
    uint32_t col;
    uint32_t begin;  // [begin, end) into cur_, f0_, f1_
    uint32_t end;
    double view_cost;
    double max_cur;
    double offered;
    double offered_term;  // F1(offered) − offered·F0(offered)
  };

  // The first of g's positions with cur > x, or g.end.
  size_t Above(const Group& g, double x) const;
  void SetOffered(Group& g, double offered) const;

  const QueryViewGraph* graph_ = nullptr;
  uint32_t view_ = 0;
  double err_scale_ = 0.0;  // (8n + 16)·u
  double err_floor_ = 0.0;  // 4n·2^-1074, for products that underflow
  std::vector<uint32_t> col_end_;  // Load's counting sort
  std::vector<Entry> entries_;
  std::vector<Group> groups_;
  std::vector<double> cur_;  // ascending within each group
  std::vector<double> f0_;   // suffix sums of f within each group
  std::vector<double> f1_;   // suffix sums of f·cur within each group
};

}  // namespace olapidx

#endif  // OLAPIDX_CORE_COLUMN_PRICER_H_
