#include "core/cube_graph.h"

#include <cmath>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "data/tpcd.h"

namespace olapidx {
namespace {

class CubeGraphTest : public ::testing::Test {
 protected:
  CubeGraphTest()
      : schema_(TpcdSchema()),
        sizes_(TpcdPaperSizes()),
        lattice_(schema_),
        workload_(AllSliceQueries(lattice_)),
        cube_(TryBuildCubeGraph(schema_, sizes_, workload_).value()) {}

  CubeSchema schema_;
  ViewSizes sizes_;
  CubeLattice lattice_;
  Workload workload_;
  CubeGraph cube_;
};

TEST_F(CubeGraphTest, StructureCounts) {
  // 3 dims: 8 views, 23 fat structures, 27 queries.
  EXPECT_EQ(cube_.graph.num_views(), 8u);
  EXPECT_EQ(cube_.graph.num_structures(),
            CubeLattice::TotalFatStructures(3));
  EXPECT_EQ(cube_.graph.num_queries(), 27u);
}

TEST_F(CubeGraphTest, ViewSpacesMatchSizes) {
  for (uint32_t v = 0; v < cube_.graph.num_views(); ++v) {
    EXPECT_EQ(cube_.graph.view_space(v), sizes_[v]);
    // Index spaces equal the view space.
    for (int32_t k = 0; k < cube_.graph.num_indexes(v); ++k) {
      EXPECT_EQ(cube_.graph.index_space(v, k), sizes_[v]);
    }
  }
}

TEST_F(CubeGraphTest, DefaultCostIsBaseViewSize) {
  for (uint32_t q = 0; q < cube_.graph.num_queries(); ++q) {
    EXPECT_EQ(cube_.graph.query_default_cost(q), 6e6);
  }
}

TEST_F(CubeGraphTest, EdgesOnlyForAnsweringViews) {
  for (uint32_t v = 0; v < cube_.graph.num_views(); ++v) {
    AttributeSet attrs = cube_.view_attrs[v];
    for (uint32_t q : cube_.graph.ViewQueries(v)) {
      EXPECT_TRUE(cube_.queries[q].AnswerableFrom(attrs));
    }
  }
}

TEST_F(CubeGraphTest, ViewNamesReadable) {
  EXPECT_EQ(cube_.graph.view_name(lattice_.BaseView()), "psc");
  EXPECT_EQ(cube_.graph.view_name(0), "none");
}

TEST_F(CubeGraphTest, IndexEdgesOnlyWhenCheaperThanScan) {
  for (uint32_t v = 0; v < cube_.graph.num_views(); ++v) {
    const auto& queries = cube_.graph.ViewQueries(v);
    for (size_t pos = 0; pos < queries.size(); ++pos) {
      double scan = cube_.graph.ViewCostAt(v, pos);
      EXPECT_FALSE(std::isinf(scan));  // every answering view has a scan edge
      for (int32_t k = 0; k < cube_.graph.num_indexes(v); ++k) {
        double c = cube_.graph.IndexCostAt(v, k, pos);
        if (!std::isinf(c)) {
          EXPECT_LT(c, scan);
        }
      }
    }
  }
}

TEST_F(CubeGraphTest, AllIndexesAblationGrowsStructureCount) {
  CubeGraphOptions opts;
  opts.fat_indexes_only = false;
  StatusOr<CubeGraph> all = TryBuildCubeGraph(schema_, sizes_, workload_, opts);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_GT(all->graph.num_structures(), cube_.graph.num_structures());
  // 8 views + Σ all ordered-subset indexes: 3·1 + 3·4 + 1·15 = 30 indexes.
  EXPECT_EQ(all->graph.num_structures(), 8u + 3u + 12u + 15u);
}

TEST_F(CubeGraphTest, CustomDefaultCost) {
  CubeGraphOptions opts;
  opts.default_query_cost = 123.0;
  StatusOr<CubeGraph> cg = TryBuildCubeGraph(schema_, sizes_, workload_, opts);
  ASSERT_TRUE(cg.ok()) << cg.status().ToString();
  EXPECT_EQ(cg->graph.query_default_cost(0), 123.0);
}

TEST_F(CubeGraphTest, FrequenciesPropagate) {
  Workload w;
  w.Add(SliceQuery(AttributeSet::Of({0}), AttributeSet()), 5.0);
  StatusOr<CubeGraph> cg = TryBuildCubeGraph(schema_, sizes_, w);
  ASSERT_TRUE(cg.ok()) << cg.status().ToString();
  ASSERT_EQ(cg->graph.num_queries(), 1u);
  EXPECT_EQ(cg->graph.query_frequency(0), 5.0);
}

TEST(CubeGraphLimitsTest, NineDimensionsWithFatIndexesRejected) {
  SyntheticCube cube = UniformSyntheticCube(9, 10, 0.5);
  Workload w;
  w.Add(SliceQuery(AttributeSet::Of({0}), AttributeSet()));
  StatusOr<CubeGraph> built =
      TryBuildCubeGraph(cube.schema, cube.sizes, w, CubeGraphOptions{});
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(built.status().message().find("8 dimensions"), std::string::npos)
      << built.status().ToString();
}

TEST(CubeGraphLimitsTest, SevenDimensionAblationRejected) {
  SyntheticCube cube = UniformSyntheticCube(7, 10, 0.5);
  Workload w;
  w.Add(SliceQuery(AttributeSet::Of({0}), AttributeSet()));
  CubeGraphOptions options;
  options.fat_indexes_only = false;
  StatusOr<CubeGraph> built =
      TryBuildCubeGraph(cube.schema, cube.sizes, w, options);
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(built.status().message().find("6 dimensions"), std::string::npos)
      << built.status().ToString();
}

TEST(CubeGraphLimitsTest, SevenDimensionFatBuildAccepted) {
  // 7 is within the fat-index limit; the same cube is rejected only for
  // the ablation family.
  SyntheticCube cube = UniformSyntheticCube(7, 10, 0.5);
  Workload w;
  w.Add(SliceQuery(AttributeSet::Of({0, 3}), AttributeSet::Of({5})));
  StatusOr<CubeGraph> built =
      TryBuildCubeGraph(cube.schema, cube.sizes, w, CubeGraphOptions{});
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_EQ(built->graph.num_queries(), 1u);
}

}  // namespace
}  // namespace olapidx
