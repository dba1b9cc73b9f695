#include "hierarchy/hierarchical_graph.h"

#include <gtest/gtest.h>

#include "core/guarantees.h"
#include "core/inner_greedy.h"
#include "core/optimal.h"
#include "core/r_greedy.h"

namespace olapidx {
namespace {

// Retail-style schema: store→city→region, day→month, promo (flat).
HierarchicalSchema RetailSchema() {
  return HierarchicalSchema({
      HierarchicalDimension{
          "store",
          {{"store", 400}, {"city", 60}, {"region", 8}}},
      HierarchicalDimension{"day", {{"day", 365}, {"month", 12}}},
      HierarchicalDimension{"promo", {{"promo", 30}}},
  });
}

TEST(HierarchicalSchemaTest, Basics) {
  HierarchicalSchema schema = RetailSchema();
  EXPECT_EQ(schema.num_dimensions(), 3);
  EXPECT_EQ(schema.num_levels(0), 3);
  EXPECT_EQ(schema.all_level(0), 3);
  EXPECT_EQ(schema.cardinality(0, 1), 60u);
  EXPECT_EQ(schema.cardinality(0, 3), 1u);  // ALL
  EXPECT_EQ(schema.level_name(1, 1), "month");
  EXPECT_EQ(schema.level_name(1, 2), "ALL");
  // Views: (3+1)(2+1)(1+1) = 24.
  EXPECT_EQ(schema.NumViews(), 24u);
}

TEST(HierarchicalSchemaDeathTest, IncreasingCardinalityRejected) {
  EXPECT_DEATH(HierarchicalSchema({HierarchicalDimension{
                   "d", {{"coarse", 10}, {"finer", 100}}}}),
               "CHECK");
}

TEST(LevelVectorTest, Computability) {
  // Finer levels (smaller index) can compute coarser ones.
  LevelVector fine({0, 0, 0});
  LevelVector mid({1, 0, 1});
  LevelVector coarse({2, 1, 1});
  EXPECT_TRUE(mid.ComputableFrom(fine));
  EXPECT_TRUE(coarse.ComputableFrom(mid));
  EXPECT_TRUE(coarse.ComputableFrom(fine));
  EXPECT_FALSE(fine.ComputableFrom(mid));
  // Incomparable pair.
  LevelVector a({0, 1, 0});
  LevelVector b({1, 0, 0});
  EXPECT_FALSE(a.ComputableFrom(b));
  EXPECT_FALSE(b.ComputableFrom(a));
}

TEST(HierarchicalLatticeTest, IdRoundTrip) {
  HierarchicalSchema schema = RetailSchema();
  HierarchicalLattice lattice(&schema);
  EXPECT_EQ(lattice.num_views(), 24u);
  for (HViewId v = 0; v < lattice.num_views(); ++v) {
    EXPECT_EQ(lattice.IdOf(lattice.LevelsOf(v)), v);
  }
  EXPECT_EQ(lattice.LevelsOf(lattice.BaseView()), LevelVector({0, 0, 0}));
}

TEST(HierarchicalLatticeTest, DomainAndNames) {
  HierarchicalSchema schema = RetailSchema();
  HierarchicalLattice lattice(&schema);
  LevelVector v({1, 1, 1});  // city, month, ALL(promo index 1 = ALL)
  EXPECT_EQ(lattice.DomainSize(v), 60.0 * 12.0 * 1.0);
  EXPECT_EQ(lattice.ViewName(v), "store.city|day.month");
  LevelVector apex({3, 2, 1});
  EXPECT_EQ(lattice.ViewName(apex), "none");
  EXPECT_EQ(lattice.DomainSize(apex), 1.0);
}

TEST(HierarchicalLatticeTest, ActiveDimsAndFatIndexes) {
  HierarchicalSchema schema = RetailSchema();
  HierarchicalLattice lattice(&schema);
  LevelVector v({1, 2, 0});  // city, ALL, promo
  EXPECT_EQ(lattice.ActiveDimensions(v), (std::vector<int>{0, 2}));
  EXPECT_EQ(lattice.FatIndexOrders(v).size(), 2u);  // 2 permutations
  EXPECT_TRUE(lattice.FatIndexOrders(LevelVector({3, 2, 1})).empty());
}

TEST(HierarchicalLatticeTest, AnalyticalSizesMonotone) {
  HierarchicalSchema schema = RetailSchema();
  HierarchicalLattice lattice(&schema);
  std::vector<double> sizes = lattice.AnalyticalSizes(50'000);
  // Coarser views never have more rows.
  for (HViewId a = 0; a < lattice.num_views(); ++a) {
    for (HViewId b = 0; b < lattice.num_views(); ++b) {
      if (lattice.LevelsOf(a).ComputableFrom(lattice.LevelsOf(b))) {
        EXPECT_LE(sizes[a], sizes[b] + 1e-9) << a << " vs " << b;
      }
    }
  }
}

TEST(HQueryTest, EnumerationCount) {
  HierarchicalSchema schema = RetailSchema();
  // Π (1 + 2·L_d) = 7 · 5 · 3 = 105.
  EXPECT_EQ(EnumerateAllHQueries(schema).size(), 105u);
  // A flat 1-level-per-dim schema degenerates to 3^n.
  HierarchicalSchema flat({HierarchicalDimension{"a", {{"a", 10}}},
                           HierarchicalDimension{"b", {{"b", 10}}},
                           HierarchicalDimension{"c", {{"c", 10}}}});
  EXPECT_EQ(EnumerateAllHQueries(flat).size(), 27u);
}

TEST(HQueryTest, AnswerabilityRespectsLevels) {
  HierarchicalSchema schema = RetailSchema();
  // Group by city, select month.
  HSliceQuery q({HDimRole{HDimRole::kGroupBy, 1},
                 HDimRole{HDimRole::kSelect, 1},
                 HDimRole{HDimRole::kAbsent, 0}});
  // Answerable from (store, day, promo) — finer everywhere.
  EXPECT_TRUE(q.AnswerableFrom(LevelVector({0, 0, 0}), schema));
  // Answerable from (city, month, ALL) — exactly matching.
  EXPECT_TRUE(q.AnswerableFrom(LevelVector({1, 1, 1}), schema));
  // NOT answerable from (region, month, ALL) — store dim too coarse.
  EXPECT_FALSE(q.AnswerableFrom(LevelVector({2, 1, 1}), schema));
  // NOT answerable from (city, ALL, ALL) — day dim aggregated away.
  EXPECT_FALSE(q.AnswerableFrom(LevelVector({1, 2, 1}), schema));
}

TEST(HQueryTest, ToString) {
  HierarchicalSchema schema = RetailSchema();
  HSliceQuery q({HDimRole{HDimRole::kGroupBy, 1},
                 HDimRole{HDimRole::kSelect, 0},
                 HDimRole{HDimRole::kAbsent, 0}});
  EXPECT_EQ(q.ToString(schema), "g{store.city}s{day.day}");
}

class HierarchicalGraphTest : public ::testing::Test {
 protected:
  HierarchicalGraphTest()
      : schema_(RetailSchema()),
        graph_(TryBuildHierarchicalCubeGraph(
                   schema_, /*raw_rows=*/50'000, UniformHWorkload(schema_),
                   HierarchicalGraphOptions{.raw_scan_penalty = 2.0})
                   .value()) {}

  HierarchicalSchema schema_;
  HierarchicalCubeGraph graph_;
};

TEST_F(HierarchicalGraphTest, Shape) {
  EXPECT_EQ(graph_.graph.num_views(), 24u);
  EXPECT_EQ(graph_.graph.num_queries(), 105u);
  // Base view has 3 active dims → 6 fat indexes.
  EXPECT_EQ(graph_.graph.num_indexes(0), 6);
}

TEST_F(HierarchicalGraphTest, FlatSchemaReducesToPaperModel) {
  // A flat hierarchy must produce the same costs as the flat builder: the
  // cost of γ_{store} σ_{day} via I_(day,store) on (store,day) equals
  // |store,day| / |day|.
  HierarchicalSchema flat(
      {HierarchicalDimension{"p", {{"p", 100}}},
       HierarchicalDimension{"s", {{"s", 10}}}});
  StatusOr<HierarchicalCubeGraph> g = TryBuildHierarchicalCubeGraph(
      flat, 5'000, UniformHWorkload(flat));
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  // Locate the base view (levels {0,0}).
  HierarchicalLattice lattice(&flat);
  HViewId base = lattice.BaseView();
  double base_size = g->view_sizes[base];
  // |E| for a selection on s is the subcube (ALL, s)'s size.
  HViewId s_view = lattice.IdOf(LevelVector({1, 0}));
  double expected = base_size / g->view_sizes[s_view];
  // Find the query g{p}s{s} and the index (s, p).
  bool checked = false;
  for (uint32_t q = 0; q < g->graph.num_queries(); ++q) {
    if (g->graph.query_name(q) != "g{p.p}s{s.s}") continue;
    const auto& queries = g->graph.ViewQueries(static_cast<uint32_t>(base));
    for (size_t pos = 0; pos < queries.size(); ++pos) {
      if (queries[pos] != q) continue;
      const auto nk = static_cast<size_t>(
          g->graph.num_indexes(static_cast<uint32_t>(base)));
      for (size_t k = 0; k < nk; ++k) {
        if (g->IndexOrderOf(static_cast<uint32_t>(base),
                            static_cast<int32_t>(k)) ==
            std::vector<int>{1, 0}) {
          EXPECT_NEAR(g->graph.IndexCostAt(static_cast<uint32_t>(base),
                                           static_cast<int32_t>(k), pos),
                      expected, 1e-9);
          checked = true;
        }
      }
    }
  }
  EXPECT_TRUE(checked);
}

TEST_F(HierarchicalGraphTest, AlgorithmsRunAndObeyOrdering) {
  double total = 0.0;
  for (uint32_t v = 0; v < graph_.graph.num_views(); ++v) {
    total += graph_.graph.view_space(v) *
             (1.0 + static_cast<double>(graph_.graph.num_indexes(v)));
  }
  double budget = 0.05 * total;
  SelectionResult one = RGreedy(graph_.graph, budget, {.r = 1});
  SelectionResult two = RGreedy(graph_.graph, budget, {.r = 2});
  SelectionResult inner = InnerLevelGreedy(graph_.graph, budget);
  EXPECT_GT(one.Benefit(), 0.0);
  EXPECT_GE(two.Benefit(), one.Benefit() * 0.5);
  EXPECT_GT(inner.Benefit(), 0.0);
  // Certified ratio against the upper bound.
  StatusOr<double> ub = UpperBoundBenefit(graph_.graph, inner.space_used);
  ASSERT_TRUE(ub.ok()) << ub.status().ToString();
  EXPECT_GE(inner.Benefit() / *ub, 0.45);
}

TEST_F(HierarchicalGraphTest, MidLevelViewsGetSelected) {
  // The whole point of hierarchies: some picked views should sit strictly
  // between base and apex (e.g. city- or month-level aggregates).
  double total = 0.0;
  for (uint32_t v = 0; v < graph_.graph.num_views(); ++v) {
    total += graph_.graph.view_space(v) *
             (1.0 + static_cast<double>(graph_.graph.num_indexes(v)));
  }
  SelectionResult inner = InnerLevelGreedy(graph_.graph, 0.1 * total);
  bool has_mid_level = false;
  for (const StructureRef& s : inner.picks) {
    if (!s.is_view()) continue;
    const LevelVector& levels = graph_.view_levels[s.view];
    for (int d = 0; d < schema_.num_dimensions(); ++d) {
      if (levels.level(d) > 0 && levels.level(d) < schema_.all_level(d)) {
        has_mid_level = true;
      }
    }
  }
  EXPECT_TRUE(has_mid_level);
}

TEST_F(HierarchicalGraphTest, LazyOneGreedyEquivalentOnHierarchies) {
  double total = 0.0;
  for (uint32_t v = 0; v < graph_.graph.num_views(); ++v) {
    total += graph_.graph.view_space(v) *
             (1.0 + static_cast<double>(graph_.graph.num_indexes(v)));
  }
  for (double frac : {0.02, 0.1}) {
    SelectionResult eager =
        RGreedy(graph_.graph, frac * total, RGreedyOptions{.r = 1});
    SelectionResult lazy = RGreedy(
        graph_.graph, frac * total,
        RGreedyOptions{.r = 1, .lazy_one_greedy = true});
    EXPECT_NEAR(lazy.Benefit(), eager.Benefit(),
                1e-9 * (1.0 + eager.Benefit()));
    EXPECT_LE(lazy.candidates_evaluated, eager.candidates_evaluated);
  }
}

TEST_F(HierarchicalGraphTest, GuaranteeHoldsAgainstOptimalOnTinyInstance) {
  HierarchicalSchema tiny(
      {HierarchicalDimension{"a", {{"a0", 40}, {"a1", 5}}},
       HierarchicalDimension{"b", {{"b0", 12}}}});
  StatusOr<HierarchicalCubeGraph> g = TryBuildHierarchicalCubeGraph(
      tiny, 300, UniformHWorkload(tiny),
      HierarchicalGraphOptions{.raw_scan_penalty = 2.0});
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  double budget = 150.0;
  SelectionResult two = RGreedy(g->graph, budget, {.r = 2});
  SelectionResult opt = BranchAndBoundOptimal(g->graph, two.space_used);
  ASSERT_TRUE(opt.proven_optimal);
  EXPECT_GE(two.Benefit(), RGreedyGuarantee(2) * opt.Benefit() - 1e-9);
  EXPECT_LE(two.Benefit(), opt.Benefit() + 1e-9);
}

}  // namespace
}  // namespace olapidx
