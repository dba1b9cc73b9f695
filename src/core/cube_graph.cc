#include "core/cube_graph.h"

#include <vector>

namespace olapidx {

// The pre-optimization builder, kept verbatim (modulo the Status wrapper
// around the dimension limits and the graph owning the index keys) as the
// differential oracle: every view is tested per query, and every
// permutation is costed individually. Index maintenance is set index by
// index, so the graph holds it per index where the fast builder's is
// uniform per view.
CubeGraph BuildCubeGraphReference(const CubeSchema& schema,
                                  const ViewSizes& sizes,
                                  const Workload& workload,
                                  const CubeGraphOptions& options) {
  OLAPIDX_CHECK(sizes.num_dimensions() == schema.num_dimensions());
  OLAPIDX_CHECK(sizes.Complete());
  CubeLattice lattice(schema);
  LinearCostModel cost(&sizes);

  CubeGraph out;
  QueryViewGraph& g = out.graph;
  g.SetNameDictionary(schema.names());

  // Views and their indexes. Graph view ids coincide with lattice ViewIds
  // because we add them in mask order.
  for (ViewId v = 0; v < lattice.num_views(); ++v) {
    AttributeSet attrs = lattice.AttrsOf(v);
    uint32_t gv = g.AddView(attrs.ToString(schema.names()),
                            cost.ViewSpace(attrs));
    OLAPIDX_CHECK(gv == v);
    out.view_attrs.push_back(attrs);
    if (options.maintenance_per_row > 0.0) {
      g.SetViewMaintenance(gv,
                           options.maintenance_per_row *
                               cost.ViewSpace(attrs));
    }
    std::vector<IndexKey> keys = options.fat_indexes_only
                                     ? lattice.FatIndexes(v)
                                     : lattice.AllIndexes(v);
    g.AddIndexes(gv, keys, cost.IndexSpace(attrs));
    if (options.maintenance_per_row > 0.0) {
      for (int32_t gi = 0; gi < g.num_indexes(gv); ++gi) {
        g.SetIndexMaintenance(gv, gi,
                              options.maintenance_per_row *
                                  cost.IndexSpace(attrs));
      }
    }
  }

  // Queries: default cost is a scan of the raw data, modelled as the base
  // view's row count (Section 5.1: "the cost incurred in answering the
  // query using the raw data table").
  OLAPIDX_CHECK(options.raw_scan_penalty >= 1.0);
  double default_cost =
      options.default_query_cost > 0.0
          ? options.default_query_cost
          : options.raw_scan_penalty * sizes[lattice.BaseView()];
  for (const WeightedQuery& wq : workload.queries()) {
    uint32_t q = g.AddQuery(wq.query.ToString(schema.names()), default_cost,
                            wq.frequency);
    out.queries.push_back(wq.query);

    // One k=0 edge per answering view, plus one edge per index whose
    // prefix actually reduces the cost below a scan.
    for (ViewId v = 0; v < lattice.num_views(); ++v) {
      AttributeSet view_attrs = lattice.AttrsOf(v);
      if (!wq.query.AnswerableFrom(view_attrs)) continue;
      double scan = cost.ScanCost(view_attrs);
      g.AddViewEdge(q, v, scan);
      for (int32_t k = 0; k < g.num_indexes(v); ++k) {
        double c = cost.QueryCost(wq.query, view_attrs, g.index_key(v, k));
        if (c < scan) {
          g.AddIndexEdge(q, v, k, c);
        }
      }
    }
  }

  g.Finalize();
  return out;
}

}  // namespace olapidx
