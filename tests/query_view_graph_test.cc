#include "core/query_view_graph.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace olapidx {
namespace {

// A view's positions as a vector, so a comparison prints them.
std::vector<uint32_t> Positions(std::span<const uint32_t> queries) {
  return {queries.begin(), queries.end()};
}

TEST(QueryViewGraphTest, BuildAndIntrospect) {
  QueryViewGraph g;
  uint32_t v0 = g.AddView("V0", 10.0);
  uint32_t v1 = g.AddView("V1", 5.0);
  int32_t i0 = g.AddIndex(v0, "I0", 10.0);
  uint32_t q0 = g.AddQuery("Q0", 100.0, 2.0);
  uint32_t q1 = g.AddQuery("Q1", 50.0);
  g.AddViewEdge(q0, v0, 10.0);
  g.AddIndexEdge(q0, v0, i0, 2.0);
  g.AddViewEdge(q1, v1, 5.0);
  g.Finalize();

  EXPECT_EQ(g.num_views(), 2u);
  EXPECT_EQ(g.num_queries(), 2u);
  EXPECT_EQ(g.num_structures(), 3u);
  EXPECT_EQ(g.view_name(v0), "V0");
  EXPECT_EQ(g.view_space(v0), 10.0);
  EXPECT_EQ(g.num_indexes(v0), 1);
  EXPECT_EQ(g.num_indexes(v1), 0);
  EXPECT_EQ(g.index_space(v0, i0), 10.0);
  EXPECT_EQ(g.query_default_cost(q0), 100.0);
  EXPECT_EQ(g.query_frequency(q0), 2.0);
  EXPECT_EQ(g.query_frequency(q1), 1.0);
  // τ(G, ∅) = 2·100 + 1·50.
  EXPECT_NEAR(g.DefaultTotalCost(), 250.0, 1e-12);

  ASSERT_EQ(g.ViewQueries(v0).size(), 1u);
  EXPECT_EQ(g.ViewQueries(v0)[0], q0);
  EXPECT_EQ(g.ViewCostAt(v0, 0), 10.0);
  EXPECT_EQ(g.IndexCostAt(v0, i0, 0), 2.0);
  ASSERT_EQ(g.ViewQueries(v1).size(), 1u);
  EXPECT_EQ(g.ViewCostAt(v1, 0), 5.0);
}

TEST(QueryViewGraphTest, MissingEdgesAreInfinite) {
  QueryViewGraph g;
  uint32_t v = g.AddView("V", 1.0);
  int32_t i = g.AddIndex(v, "I", 1.0);
  uint32_t q = g.AddQuery("Q", 10.0);
  // Only an index edge, no view edge.
  g.AddIndexEdge(q, v, i, 3.0);
  g.Finalize();
  ASSERT_EQ(g.ViewQueries(v).size(), 1u);
  EXPECT_TRUE(std::isinf(g.ViewCostAt(v, 0)));
  EXPECT_EQ(g.IndexCostAt(v, i, 0), 3.0);
}

TEST(QueryViewGraphTest, MultigraphKeepsCheapestLabel) {
  QueryViewGraph g;
  uint32_t v = g.AddView("V", 1.0);
  uint32_t q = g.AddQuery("Q", 10.0);
  g.AddViewEdge(q, v, 7.0);
  g.AddViewEdge(q, v, 4.0);
  g.AddViewEdge(q, v, 9.0);
  g.Finalize();
  EXPECT_EQ(g.ViewCostAt(v, 0), 4.0);
}

TEST(QueryViewGraphTest, StructureNames) {
  QueryViewGraph g;
  uint32_t v = g.AddView("ps", 1.0);
  int32_t i = g.AddIndex(v, "I_sp", 1.0);
  g.Finalize();
  EXPECT_EQ(g.StructureName(StructureRef{v, StructureRef::kNoIndex}), "ps");
  EXPECT_EQ(g.StructureName(StructureRef{v, i}), "I_sp(ps)");
  EXPECT_EQ(g.structure_space(StructureRef{v, i}), 1.0);
}

TEST(QueryViewGraphTest, ViewsWithNoEdgesHaveEmptyQueryLists) {
  QueryViewGraph g;
  g.AddView("V0", 1.0);
  uint32_t v1 = g.AddView("V1", 1.0);
  uint32_t q = g.AddQuery("Q", 10.0);
  g.AddViewEdge(q, v1, 1.0);
  g.Finalize();
  EXPECT_TRUE(g.ViewQueries(0).empty());
  EXPECT_EQ(g.ViewQueries(v1).size(), 1u);
}

TEST(QueryViewGraphDeathTest, EdgesAfterFinalizeRejected) {
  QueryViewGraph g;
  uint32_t v = g.AddView("V", 1.0);
  uint32_t q = g.AddQuery("Q", 1.0);
  g.Finalize();
  EXPECT_DEATH(g.AddViewEdge(q, v, 1.0), "CHECK");
}

TEST(QueryViewGraphDeathTest, BadIndexPositionRejected) {
  QueryViewGraph g;
  uint32_t v = g.AddView("V", 1.0);
  uint32_t q = g.AddQuery("Q", 1.0);
  EXPECT_DEATH(g.AddIndexEdge(q, v, 0, 1.0), "CHECK");
}

TEST(QueryViewGraphTest, LazyIndexesRenderNamesOnDemand) {
  QueryViewGraph g;
  g.SetNameDictionary({"p", "s", "c"});
  uint32_t v = g.AddView("psc", 6.0);
  g.AddIndexes(v,
               std::vector<IndexKey>{IndexKey({0, 1}), IndexKey({1, 0}),
                                     IndexKey({2})},
               6.0, 0.5);
  EXPECT_EQ(g.num_indexes(v), 3);
  EXPECT_EQ(g.num_structures(), 4u);
  EXPECT_EQ(g.index_name(v, 0), "I_ps");
  EXPECT_EQ(g.index_name(v, 1), "I_sp");
  EXPECT_EQ(g.index_name(v, 2), "I_c");
  EXPECT_EQ(g.StructureName(StructureRef{v, 1}), "I_sp(psc)");
  EXPECT_EQ(g.index_space(v, 0), 6.0);
  EXPECT_EQ(g.index_space(v, 2), 6.0);
  EXPECT_EQ(g.structure_maintenance(StructureRef{v, 1}), 0.5);
  EXPECT_EQ(g.index_key(v, 1), IndexKey({1, 0}));
}

TEST(QueryViewGraphTest, IndexEdgeRunExpandsToEveryIndexInRange) {
  QueryViewGraph g;
  g.SetNameDictionary({"a", "b"});
  uint32_t v = g.AddView("ab", 4.0);
  g.AddIndexes(v,
               std::vector<IndexKey>{IndexKey({0}), IndexKey({1}),
                                     IndexKey({0, 1}), IndexKey({1, 0})},
               4.0);
  uint32_t q = g.AddQuery("Q", 10.0);
  std::vector<EdgeRun> runs = {
      EdgeRun{q, v, StructureRef::kNoIndex, StructureRef::kNoIndex, 4.0},
      EdgeRun{q, v, 1, 3, 2.0},  // indexes 1 and 2, not 0 or 3
  };
  g.ConsumeEdgeRuns(runs);
  EXPECT_TRUE(runs.empty());
  g.Finalize();
  ASSERT_EQ(g.ViewQueries(v).size(), 1u);
  EXPECT_EQ(g.ViewCostAt(v, 0), 4.0);
  EXPECT_TRUE(std::isinf(g.IndexCostAt(v, 0, 0)));
  EXPECT_EQ(g.IndexCostAt(v, 1, 0), 2.0);
  EXPECT_EQ(g.IndexCostAt(v, 2, 0), 2.0);
  EXPECT_TRUE(std::isinf(g.IndexCostAt(v, 3, 0)));
}

TEST(QueryViewGraphTest, FinalizeMergesDuplicateAndOutOfOrderEdges) {
  QueryViewGraph g;
  uint32_t v0 = g.AddView("V0", 1.0);
  uint32_t v1 = g.AddView("V1", 1.0);
  int32_t i0 = g.AddIndex(v1, "I0", 1.0);
  uint32_t q0 = g.AddQuery("Q0", 10.0);
  uint32_t q1 = g.AddQuery("Q1", 10.0);
  // Deliberately interleaved across views, descending query order, with
  // duplicates on both view and index labels.
  g.AddViewEdge(q1, v1, 7.0);
  g.AddIndexEdge(q0, v1, i0, 5.0);
  g.AddViewEdge(q1, v0, 3.0);
  g.AddViewEdge(q0, v0, 2.0);
  g.AddIndexEdge(q0, v1, i0, 4.0);  // cheaper duplicate wins
  g.AddViewEdge(q1, v1, 9.0);       // more expensive duplicate loses
  g.Finalize();
  ASSERT_EQ(Positions(g.ViewQueries(v0)), (std::vector<uint32_t>{q0, q1}));
  EXPECT_EQ(g.ViewCostAt(v0, 0), 2.0);
  EXPECT_EQ(g.ViewCostAt(v0, 1), 3.0);
  ASSERT_EQ(Positions(g.ViewQueries(v1)), (std::vector<uint32_t>{q0, q1}));
  EXPECT_TRUE(std::isinf(g.ViewCostAt(v1, 0)));
  EXPECT_EQ(g.ViewCostAt(v1, 1), 7.0);
  EXPECT_EQ(g.IndexCostAt(v1, i0, 0), 4.0);
  EXPECT_TRUE(std::isinf(g.IndexCostAt(v1, i0, 1)));
  EXPECT_EQ(g.QueryViews(q0), (std::vector<uint32_t>{v0, v1}));
  EXPECT_EQ(g.QueryViews(q1), (std::vector<uint32_t>{v0, v1}));
}

TEST(QueryViewGraphTest, ShardMergedBatchesMatchDirectEdges) {
  // The same edges delivered as two ConsumeEdgeRuns shard batches (as the
  // parallel builder does) and as direct calls must finalize identically.
  auto build_direct = [] {
    QueryViewGraph g;
    g.SetNameDictionary({"a", "b"});
    uint32_t v0 = g.AddView("V0", 1.0);
    uint32_t v1 = g.AddView("V1", 2.0);
    g.AddIndexes(v1, std::vector<IndexKey>{IndexKey({0}), IndexKey({1})}, 2.0);
    g.AddQuery("Q0", 10.0);
    g.AddQuery("Q1", 10.0);
    g.AddViewEdge(0, v0, 1.0);
    g.AddViewEdge(0, v1, 2.0);
    g.AddIndexEdge(0, v1, 0, 0.5);
    g.AddIndexEdge(0, v1, 1, 0.5);
    g.AddViewEdge(1, v1, 2.0);
    g.AddIndexEdge(1, v1, 1, 0.25);
    g.Finalize();
    return g;
  };
  auto build_sharded = [] {
    QueryViewGraph g;
    g.SetNameDictionary({"a", "b"});
    uint32_t v0 = g.AddView("V0", 1.0);
    uint32_t v1 = g.AddView("V1", 2.0);
    g.AddIndexes(v1, std::vector<IndexKey>{IndexKey({0}), IndexKey({1})}, 2.0);
    g.AddQuery("Q0", 10.0);
    g.AddQuery("Q1", 10.0);
    std::vector<EdgeRun> second = {
        EdgeRun{1, v1, StructureRef::kNoIndex, StructureRef::kNoIndex, 2.0},
        EdgeRun{1, v1, 1, 2, 0.25},
    };
    std::vector<EdgeRun> first = {
        EdgeRun{0, v0, StructureRef::kNoIndex, StructureRef::kNoIndex, 1.0},
        EdgeRun{0, v1, StructureRef::kNoIndex, StructureRef::kNoIndex, 2.0},
        EdgeRun{0, v1, 0, 2, 0.5},
    };
    g.ConsumeEdgeRuns(second);  // shards may flush in any order
    g.ConsumeEdgeRuns(first);
    g.Finalize();
    return g;
  };
  QueryViewGraph direct = build_direct();
  QueryViewGraph sharded = build_sharded();
  for (uint32_t v = 0; v < direct.num_views(); ++v) {
    ASSERT_EQ(Positions(direct.ViewQueries(v)),
              Positions(sharded.ViewQueries(v)));
    for (size_t pos = 0; pos < direct.ViewQueries(v).size(); ++pos) {
      EXPECT_EQ(direct.ViewCostAt(v, pos), sharded.ViewCostAt(v, pos));
      for (int32_t k = 0; k < direct.num_indexes(v); ++k) {
        EXPECT_EQ(direct.IndexCostAt(v, k, pos),
                  sharded.IndexCostAt(v, k, pos));
      }
    }
  }
  for (uint32_t q = 0; q < direct.num_queries(); ++q) {
    EXPECT_EQ(direct.QueryViews(q), sharded.QueryViews(q));
  }
}

TEST(QueryViewGraphDeathTest, MixingEagerAndLazyIndexesRejected) {
  QueryViewGraph g;
  uint32_t v = g.AddView("V", 1.0);
  g.AddIndex(v, "I", 1.0);
  EXPECT_DEATH(g.AddIndexes(v, std::vector<IndexKey>{IndexKey({0})}, 1.0),
               "CHECK");
}

// ---- Storage: uniform per-view index values ----
//
// A lazily registered view keeps one space and one maintenance value for
// all its indexes; SetIndexMaintenance expands them into per-index values.
// Either form must read, and fingerprint, exactly as the eager per-index
// registration of the same content.
TEST(GraphStorageTest, LazyIndexValuesEqualEagerOnes) {
  const std::vector<IndexKey> keys = {IndexKey({0, 1}), IndexKey({1, 0}),
                                      IndexKey({1})};
  const std::vector<std::string> names = {"a", "b"};
  auto build = [&](bool lazy) {
    QueryViewGraph g;
    g.SetNameDictionary(names);
    g.AddView("a", 2.0);
    const uint32_t v = g.AddView("ab", 6.0);
    if (lazy) {
      g.AddIndexes(v, keys, 6.0, 0.5);
    } else {
      for (const IndexKey& key : keys) {
        g.SetIndexMaintenance(v, g.AddIndex(v, key.ToString(names), 6.0),
                              0.5);
      }
    }
    const uint32_t q0 = g.AddQuery("Q0", 20.0, 2.0);
    const uint32_t q1 = g.AddQuery("Q1", 20.0);
    g.AddViewEdge(q0, 0, 2.0);
    g.AddViewEdge(q0, v, 6.0);
    g.AddIndexEdge(q0, v, 1, 3.0);
    g.AddViewEdge(q1, v, 6.0);
    g.AddIndexEdge(q1, v, 0, 1.0);
    g.AddIndexEdge(q1, v, 2, 2.0);
    g.Finalize();
    return g;
  };
  auto expect_same = [](const QueryViewGraph& lazy,
                        const QueryViewGraph& eager) {
    EXPECT_EQ(lazy.Fingerprint(), eager.Fingerprint());
    for (uint32_t v = 0; v < eager.num_views(); ++v) {
      ASSERT_EQ(lazy.num_indexes(v), eager.num_indexes(v));
      for (int32_t k = 0; k < eager.num_indexes(v); ++k) {
        EXPECT_EQ(lazy.index_name(v, k), eager.index_name(v, k));
        EXPECT_EQ(lazy.index_space(v, k), eager.index_space(v, k));
        EXPECT_EQ(lazy.structure_maintenance(StructureRef{v, k}),
                  eager.structure_maintenance(StructureRef{v, k}))
            << "view " << v << " index " << k;
      }
    }
  };
  QueryViewGraph lazy = build(true);
  QueryViewGraph eager = build(false);
  expect_same(lazy, eager);
  // One override expands the lazy view's values; the others keep theirs.
  lazy.SetIndexMaintenance(1, 1, 4.0);
  EXPECT_NE(lazy.Fingerprint(), eager.Fingerprint());
  eager.SetIndexMaintenance(1, 1, 4.0);
  expect_same(lazy, eager);
  EXPECT_EQ(lazy.structure_maintenance(StructureRef{1, 0}), 0.5);
  EXPECT_EQ(lazy.structure_maintenance(StructureRef{1, 1}), 4.0);
}

TEST(QueryViewGraphDeathTest, BadRunRangeRejected) {
  QueryViewGraph g;
  g.SetNameDictionary({"a"});
  uint32_t v = g.AddView("V", 1.0);
  g.AddIndexes(v, std::vector<IndexKey>{IndexKey({0})}, 1.0);
  uint32_t q = g.AddQuery("Q", 1.0);
  std::vector<EdgeRun> runs = {EdgeRun{q, v, 0, 2, 1.0}};
  EXPECT_DEATH(g.ConsumeEdgeRuns(runs), "CHECK");
}

// ---- An independent oracle for the edge sink ----
//
// A random graph's edges, ingested per edge (AddViewEdge / AddIndexEdge in
// shuffled order) and as ConsumeEdgeRuns batches split at query boundaries
// (shuffled, from 1, 2 and 8 threads), must finalize to exactly the
// per-(query, view, index) minimum costs a std::map computes from the same
// runs. Batched runs carry column classes drawn from per-(view, class)
// prototype columns, so every col_class promise holds.

struct RandomEdges {
  std::vector<int32_t> num_indexes;  // per view
  uint32_t num_queries = 0;
  // Each query's runs, in a shuffled order.
  std::vector<std::vector<EdgeRun>> runs_of_query;
  // (query, view, index or kNoIndex) -> cheapest label.
  std::map<std::tuple<uint32_t, uint32_t, int32_t>, double> min_cost;
};

double RandomCost(Pcg32& rng) {
  return 1.0 + static_cast<double>(rng.NextBounded(64)) / 8.0;
}

template <typename T>
void Shuffle(std::vector<T>& items, Pcg32& rng) {
  for (size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1],
              items[rng.NextBounded(static_cast<uint32_t>(i))]);
  }
}

RandomEdges MakeRandomEdges(uint64_t seed) {
  Pcg32 rng(seed);
  RandomEdges out;
  const uint32_t nv = 2 + rng.NextBounded(6);
  out.num_queries = 4 + rng.NextBounded(40);
  // Per view: its index count, and per class (id c + 1) a prototype
  // column; +inf marks an index the class has no edge to. A view with
  // indexes but no classes has no index edges at all.
  std::vector<std::vector<std::vector<double>>> protos(nv);
  for (uint32_t v = 0; v < nv; ++v) {
    const int32_t ni =
        rng.NextBounded(4) == 0 ? 0
                                : 1 + static_cast<int32_t>(rng.NextBounded(12));
    out.num_indexes.push_back(ni);
    const uint32_t nclasses =
        ni == 0 || rng.NextBounded(4) == 0 ? 0 : 1 + rng.NextBounded(5);
    for (uint32_t c = 0; c < nclasses; ++c) {
      std::vector<double> col(static_cast<size_t>(ni));
      for (double& x : col) {
        x = rng.NextBounded(3) == 0 ? QueryViewGraph::kInfiniteCost
                                    : RandomCost(rng);
      }
      protos[v].push_back(std::move(col));
    }
  }
  out.runs_of_query.resize(out.num_queries);
  for (uint32_t q = 0; q < out.num_queries; ++q) {
    std::vector<EdgeRun>& runs = out.runs_of_query[q];
    for (uint32_t v = 0; v < nv; ++v) {
      if (rng.NextBounded(3) == 0) continue;  // q has no edge to v
      const bool view_edge = rng.NextBounded(5) != 0;
      const bool index_edges = !protos[v].empty() && rng.NextBounded(4) != 0;
      if (view_edge) {
        // One to three labels; the cheapest must win.
        for (uint32_t n = 1 + rng.NextBounded(3); n > 0; --n) {
          runs.push_back(EdgeRun{q, v, StructureRef::kNoIndex,
                                 StructureRef::kNoIndex, RandomCost(rng)});
        }
      }
      if (!index_edges) continue;
      const uint32_t c = rng.NextBounded(
          static_cast<uint32_t>(protos[v].size()));
      const std::vector<double>& col = protos[v][c];
      const int32_t ni = out.num_indexes[v];
      // Cover the column's finite entries with runs of equal cost, split
      // at random, plus dearer duplicates that must lose.
      for (int32_t b = 0; b < ni;) {
        if (std::isinf(col[static_cast<size_t>(b)])) {
          ++b;
          continue;
        }
        int32_t e = b + 1;
        while (e < ni && col[static_cast<size_t>(e)] ==
                             col[static_cast<size_t>(b)] &&
               rng.NextBounded(4) != 0) {
          ++e;
        }
        const double cost = col[static_cast<size_t>(b)];
        runs.push_back(EdgeRun{q, v, b, e, cost, c + 1});
        if (rng.NextBounded(3) == 0) {
          runs.push_back(EdgeRun{q, v, b, e, cost + 1.0, c + 1});
        }
        b = e;
      }
    }
    Shuffle(runs, rng);
    for (const EdgeRun& r : runs) {
      const int32_t b = r.index_begin;
      const int32_t e = b == StructureRef::kNoIndex ? b + 1 : r.index_end;
      for (int32_t k = b; k < e; ++k) {
        auto [it, fresh] = out.min_cost.try_emplace({q, r.view, k}, r.cost);
        if (!fresh) it->second = std::min(it->second, r.cost);
      }
    }
  }
  return out;
}

// A graph with RandomEdges' views, indexes and queries, and no edges yet.
void AddStructures(const RandomEdges& edges, QueryViewGraph& g) {
  for (size_t v = 0; v < edges.num_indexes.size(); ++v) {
    const uint32_t gv = g.AddView("V" + std::to_string(v), 1.0);
    for (int32_t k = 0; k < edges.num_indexes[v]; ++k) {
      g.AddIndex(gv, "I" + std::to_string(k), 1.0);
    }
  }
  for (uint32_t q = 0; q < edges.num_queries; ++q) {
    g.AddQuery("Q" + std::to_string(q), 100.0);
  }
}

QueryViewGraph IngestPerEdge(const RandomEdges& edges, Pcg32& rng) {
  QueryViewGraph g;
  AddStructures(edges, g);
  std::vector<EdgeRun> singles;
  for (const std::vector<EdgeRun>& runs : edges.runs_of_query) {
    for (const EdgeRun& r : runs) {
      if (r.index_begin == StructureRef::kNoIndex) {
        singles.push_back(r);
        continue;
      }
      for (int32_t k = r.index_begin; k < r.index_end; ++k) {
        singles.push_back(EdgeRun{r.query, r.view, k, k + 1, r.cost});
      }
    }
  }
  Shuffle(singles, rng);
  for (const EdgeRun& r : singles) {
    if (r.index_begin == StructureRef::kNoIndex) {
      g.AddViewEdge(r.query, r.view, r.cost);
    } else {
      g.AddIndexEdge(r.query, r.view, r.index_begin, r.cost);
    }
  }
  g.Finalize();
  return g;
}

QueryViewGraph IngestBatches(const RandomEdges& edges, size_t threads,
                             Pcg32& rng) {
  QueryViewGraph g;
  AddStructures(edges, g);
  // Batches of consecutive queries, consumed in a shuffled order.
  std::vector<std::vector<EdgeRun>> batches;
  for (uint32_t q = 0; q < edges.num_queries;) {
    const uint32_t end =
        std::min(edges.num_queries, q + 1 + rng.NextBounded(4));
    std::vector<EdgeRun>& batch = batches.emplace_back();
    for (; q < end; ++q) {
      const std::vector<EdgeRun>& runs = edges.runs_of_query[q];
      batch.insert(batch.end(), runs.begin(), runs.end());
    }
  }
  Shuffle(batches, rng);
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      for (size_t i = next++; i < batches.size(); i = next++) {
        g.ConsumeEdgeRuns(batches[i]);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  g.Finalize();
  return g;
}

void ExpectMatchesOracle(const QueryViewGraph& g, const RandomEdges& edges,
                         const std::string& label) {
  SCOPED_TRACE(label);
  const uint32_t nv = static_cast<uint32_t>(edges.num_indexes.size());
  std::vector<std::set<uint32_t>> queries_of(nv);
  std::vector<std::set<uint32_t>> views_of(edges.num_queries);
  for (const auto& [key, cost] : edges.min_cost) {
    queries_of[std::get<1>(key)].insert(std::get<0>(key));
    views_of[std::get<0>(key)].insert(std::get<1>(key));
  }
  auto expected = [&](uint32_t q, uint32_t v, int32_t k) {
    auto it = edges.min_cost.find({q, v, k});
    return it == edges.min_cost.end() ? QueryViewGraph::kInfiniteCost
                                      : it->second;
  };
  for (uint32_t q = 0; q < edges.num_queries; ++q) {
    ASSERT_EQ(g.QueryViews(q), std::vector<uint32_t>(views_of[q].begin(),
                                                     views_of[q].end()))
        << "query " << q;
  }
  for (uint32_t v = 0; v < nv; ++v) {
    const std::span<const uint32_t> queries = g.ViewQueries(v);
    ASSERT_EQ(Positions(queries), std::vector<uint32_t>(queries_of[v].begin(),
                                                        queries_of[v].end()))
        << "view " << v;
    for (size_t pos = 0; pos < queries.size(); ++pos) {
      const uint32_t q = queries[pos];
      ASSERT_EQ(g.ViewCostAt(v, pos), expected(q, v, StructureRef::kNoIndex))
          << "view " << v << " query " << q;
      for (int32_t k = 0; k < g.num_indexes(v); ++k) {
        ASSERT_EQ(g.IndexCostAt(v, k, pos), expected(q, v, k))
            << "view " << v << " query " << q << " index " << k;
      }
    }
  }
}

TEST(EdgeSinkOracleTest, RandomRunsMatchMinCostMap) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    const RandomEdges edges = MakeRandomEdges(seed);
    Pcg32 rng(seed * 7919);
    const std::string at = "seed=" + std::to_string(seed);
    ExpectMatchesOracle(IngestPerEdge(edges, rng), edges, at + " per-edge");
    // Every flush order lays the tables out alike, so the fingerprints
    // agree too.
    uint64_t fingerprint = 0;
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      QueryViewGraph g = IngestBatches(edges, threads, rng);
      const std::string label = at + " threads=" + std::to_string(threads);
      ExpectMatchesOracle(g, edges, label);
      if (fingerprint == 0) fingerprint = g.Fingerprint();
      EXPECT_EQ(g.Fingerprint(), fingerprint) << label;
    }
  }
}

}  // namespace
}  // namespace olapidx
