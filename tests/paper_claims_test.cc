// A consolidated check of every *numeric claim in the paper's prose* that
// the other suites don't already pin down — the repository's conformance
// statement against the text.

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/guarantees.h"
#include "core/optimal.h"
#include "core/r_greedy.h"
#include "data/example_graphs.h"
#include "data/tpcd.h"
#include "lattice/cube_lattice.h"
#include "workload/workload.h"

namespace olapidx {
namespace {

TEST(PaperClaimsTest, Section2IndexCostArithmetic) {
  // "The average number of rows associated with each value of s in subcube
  // ps is 80. Thus the cost of answering Q1 using I_sp is the cost of
  // processing 80 rows."
  ViewSizes sizes = TpcdPaperSizes();
  double ps = sizes.SizeOf(AttributeSet::Of({0, 1}));
  double s = sizes.SizeOf(AttributeSet::Of({1}));
  EXPECT_NEAR(ps / s, 80.0, 1e-9);
}

TEST(PaperClaimsTest, Section35Totals) {
  // "An n-dimensional data cube has associated with it: 2^n views; 3^n
  // slice queries; and about 3n! possible indexes, about 2n! of these
  // being fat indexes."
  for (int n = 2; n <= 6; ++n) {
    CubeSchema schema(std::vector<Dimension>(
        static_cast<size_t>(n), Dimension{"d", 4}));
    // Views.
    CubeLattice lattice(schema);
    EXPECT_EQ(lattice.num_views(), 1u << n);
    // Queries: Σ C(n,r)·2^r = 3^n.
    uint64_t three_n = 1;
    for (int i = 0; i < n; ++i) three_n *= 3;
    EXPECT_EQ(AllSliceQueries(lattice).size(), three_n);
  }
  // Index totals: all-ordered-subset indexes of one m-attribute view
  // approach e·m! and fat indexes are m!, so all/fat → e (the paper's
  // "about 3n!" vs "about 2n!" rounding of e ≈ 2.72 and e − 1 ≈ 1.72
  // applied at cube scale).
  for (int m = 4; m <= 8; ++m) {
    double fact = 1.0;
    for (int i = 2; i <= m; ++i) fact *= i;
    double all = static_cast<double>(CubeLattice::NumAllIndexes(m));
    EXPECT_NEAR(all / fact, std::exp(1.0), 0.2) << "m=" << m;
  }
}

TEST(PaperClaimsTest, Section42PrefixPruningFactor) {
  // "This pruning reduces the number of indexes of interest" — the
  // discarded non-fat indexes number ≈ (e−1)·m! per view.
  for (int m = 4; m <= 8; ++m) {
    double fact = 1.0;
    for (int i = 2; i <= m; ++i) fact *= i;
    double non_fat = static_cast<double>(CubeLattice::NumAllIndexes(m)) -
                     static_cast<double>(CubeLattice::NumFatIndexes(m));
    EXPECT_NEAR(non_fat / fact, std::exp(1.0) - 1.0, 0.2) << "m=" << m;
  }
}

TEST(PaperClaimsTest, Section53CandidateCountBound) {
  // "at each stage, the r-greedy algorithm must consider ... at most
  // v·i + v·C(i, r−1) possible sets" — our evaluation counter must stay
  // within that bound per stage (views v, indexes-per-view i).
  QueryViewGraph g;
  constexpr int kViews = 4, kIdx = 5;
  uint32_t q = g.AddQuery("q", 1000.0);
  for (int v = 0; v < kViews; ++v) {
    uint32_t view = g.AddView("v" + std::to_string(v), 1.0);
    g.AddViewEdge(q, view, 900.0 - v);
    for (int k = 0; k < kIdx; ++k) {
      int32_t idx = g.AddIndex(view, "i", 1.0);
      g.AddIndexEdge(q, view, idx, 100.0 - k);
    }
  }
  g.Finalize();
  SelectionResult r = RGreedy(g, 3.0, RGreedyOptions{.r = 3});
  // 3 stages max; per stage <= v(1 + i + C(i,2)) + total indexes.
  uint64_t per_stage = kViews * (1 + kIdx + kIdx * (kIdx - 1) / 2) +
                       kViews * kIdx;
  EXPECT_LE(r.candidates_evaluated, 3 * per_stage + per_stage);
}

TEST(PaperClaimsTest, Section6OneGreedyGuaranteeIsZeroAndTight) {
  // "the performance guarantee of the 1-greedy is 0; it is possible to
  // construct examples where the ratio ... is arbitrarily small."
  EXPECT_EQ(RGreedyGuarantee(1), 0.0);
  double prev_ratio = 1.0;
  for (double trap : {10.0, 1'000.0, 100'000.0}) {
    QueryViewGraph g = OneGreedyTrapInstance(trap, 1.0);
    double ratio = RGreedy(g, 2.0, {.r = 1}).Benefit() /
                   BranchAndBoundOptimal(g, 2.0).Benefit();
    EXPECT_LT(ratio, prev_ratio);
    prev_ratio = ratio;
  }
  EXPECT_LT(prev_ratio, 1e-4);
}

// Certification: the upper bound really is an upper bound on the exact
// optimum wherever the exact solver can run.
class BoundCertificationTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BoundCertificationTest, UpperBoundDominatesOptimal) {
  Pcg32 rng(GetParam());
  QueryViewGraph g;
  uint32_t nq = 3 + rng.NextBounded(4);
  std::vector<uint32_t> queries;
  for (uint32_t i = 0; i < nq; ++i) {
    queries.push_back(g.AddQuery("q" + std::to_string(i), 100.0));
  }
  for (int v = 0; v < 3; ++v) {
    uint32_t view = g.AddView("v" + std::to_string(v), 1.0);
    std::vector<int32_t> idxs;
    for (uint32_t k = 0; k < rng.NextBounded(3); ++k) {
      idxs.push_back(g.AddIndex(view, "i", 1.0));
    }
    for (uint32_t qid : queries) {
      if (rng.NextBounded(2) == 0) continue;
      double scan = 10.0 + rng.NextBounded(90);
      g.AddViewEdge(qid, view, scan);
      for (int32_t k : idxs) {
        g.AddIndexEdge(qid, view, k,
                       1.0 + rng.NextBounded(
                                 static_cast<uint32_t>(scan)));
      }
    }
  }
  g.Finalize();
  for (double budget : {1.0, 2.0, 4.0, 8.0}) {
    SelectionResult opt = BranchAndBoundOptimal(g, budget);
    ASSERT_TRUE(opt.proven_optimal);
    StatusOr<double> upper = UpperBoundBenefit(g, budget);
    StatusOr<double> perfect = PerfectBenefit(g);
    ASSERT_TRUE(upper.ok() && perfect.ok());
    EXPECT_GE(*upper, opt.Benefit() - 1e-9)
        << "seed " << GetParam() << " S=" << budget;
    EXPECT_GE(*perfect, opt.Benefit() - 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundCertificationTest,
                         ::testing::Range<uint64_t>(1, 26));

}  // namespace
}  // namespace olapidx
