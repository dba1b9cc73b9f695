// Remaining small-surface coverage: formatting edge values, workload
// accessors, advisor option plumbing, and schema guards.

#include <gtest/gtest.h>

#include "common/format.h"
#include "core/advisor.h"
#include "data/synthetic.h"
#include "lattice/schema.h"

namespace olapidx {
namespace {

TEST(FormatEdgeTest, BoundariesAndNegatives) {
  EXPECT_EQ(FormatRowCount(0), "0");
  EXPECT_EQ(FormatRowCount(999), "999");
  EXPECT_EQ(FormatRowCount(1'000), "1K");
  EXPECT_EQ(FormatRowCount(99'999), "100K");  // rounds at 2 decimals
  EXPECT_EQ(FormatRowCount(100'000), "0.1M");
  EXPECT_EQ(FormatRowCount(1e9), "1G");
  EXPECT_EQ(FormatRowCount(-2'500'000), "-2.5M");
  EXPECT_EQ(FormatFixed(-0.5, 1), "-0.5");
  EXPECT_EQ(FormatPercent(1.0, 0), "100%");
}

TEST(SchemaGuardsTest, InvalidSchemasDie) {
  EXPECT_DEATH(CubeSchema({}), "CHECK");
  EXPECT_DEATH(CubeSchema({Dimension{"a", 0}}), "CHECK");
  EXPECT_DEATH(CubeSchema({Dimension{"", 5}}), "CHECK");
  std::vector<Dimension> too_many(
      static_cast<size_t>(kMaxDimensions) + 1, Dimension{"d", 2});
  EXPECT_DEATH(CubeSchema{too_many}, "CHECK");
}

TEST(SchemaTest, DomainSizes) {
  CubeSchema schema({Dimension{"a", 10}, Dimension{"b", 20}});
  EXPECT_EQ(schema.DomainSize(AttributeSet()), 1.0);
  EXPECT_EQ(schema.DomainSize(AttributeSet::Of({0})), 10.0);
  EXPECT_EQ(schema.DomainSize(schema.AllAttributes()), 200.0);
  EXPECT_EQ(schema.names(), (std::vector<std::string>{"a", "b"}));
}

TEST(AdvisorOptionsTest, OptimalOptionsPlumbThrough) {
  SyntheticCube cube = UniformSyntheticCube(2, 10, 0.3);
  CubeLattice lattice(cube.schema);
  StatusOr<Advisor> advisor = Advisor::Create(
      cube.schema, cube.sizes, AllSliceQueries(lattice));
  ASSERT_TRUE(advisor.ok()) << advisor.status().ToString();
  AdvisorConfig config;
  config.algorithm = Algorithm::kOptimal;
  config.space_budget = cube.sizes.TotalViewSpace();
  config.optimal.node_limit = 2;  // starve the solver
  Recommendation rec = advisor->Recommend(config);
  EXPECT_FALSE(rec.raw.proven_optimal);
  config.optimal.node_limit = 50'000'000;
  rec = advisor->Recommend(config);
  EXPECT_TRUE(rec.raw.proven_optimal);
}

TEST(AdvisorOptionsTest, LazyFlagPlumbsThrough) {
  SyntheticCube cube = UniformSyntheticCube(3, 10, 0.1);
  CubeLattice lattice(cube.schema);
  CubeGraphOptions opts;
  opts.raw_scan_penalty = 2.0;
  StatusOr<Advisor> advisor = Advisor::Create(
      cube.schema, cube.sizes, AllSliceQueries(lattice), opts);
  ASSERT_TRUE(advisor.ok()) << advisor.status().ToString();
  AdvisorConfig config;
  config.algorithm = Algorithm::kRGreedy;
  config.r_greedy.r = 1;
  config.space_budget = 0.2 * cube.sizes.TotalViewSpace();
  Recommendation eager = advisor->Recommend(config);
  config.r_greedy.lazy_one_greedy = true;
  Recommendation lazy = advisor->Recommend(config);
  EXPECT_NEAR(lazy.average_query_cost, eager.average_query_cost,
              1e-9 * (1.0 + eager.average_query_cost));
  // The work comparison is against the full-rescan (unmemoized) eager
  // run; the memoized default can evaluate fewer candidates than lazy.
  config.r_greedy.lazy_one_greedy = false;
  config.r_greedy.memoize = false;
  Recommendation rescan = advisor->Recommend(config);
  EXPECT_LE(lazy.raw.candidates_evaluated,
            rescan.raw.candidates_evaluated);
}

}  // namespace
}  // namespace olapidx
