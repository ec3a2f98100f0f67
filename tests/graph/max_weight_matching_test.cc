#include "graph/max_weight_matching.h"

#include <gtest/gtest.h>

#include "reference_matchers.h"
#include "rng/random.h"

namespace maps {
namespace {

using testing_util::HungarianMaxWeight;

TEST(HungarianTest, KnownAssignment) {
  // Best over all permutations (unmatched allowed): 7 + 2 = 9, realized by
  // either (l0->r0, l1->r2) or (l0->r0, l1->r2, l2 unmatched since its only
  // positive cell r0 is taken).
  std::vector<std::vector<double>> w = {
      {7, 4, 3}, {3, 1, 2}, {3, 0, 0}};
  auto res = HungarianMaxWeight(w);
  EXPECT_DOUBLE_EQ(res.total_weight, 9.0);
}

TEST(HungarianTest, UnmatchedAllowedWhenUnprofitable) {
  // Only one positive edge; the rest should stay unmatched.
  std::vector<std::vector<double>> w = {{5, 0}, {0, 0}};
  auto res = HungarianMaxWeight(w);
  EXPECT_DOUBLE_EQ(res.total_weight, 5.0);
  EXPECT_EQ(res.match_left[0], 0);
  EXPECT_EQ(res.match_left[1], -1);
}

TEST(HungarianTest, EmptyAndRectangular) {
  EXPECT_DOUBLE_EQ(HungarianMaxWeight({}).total_weight, 0.0);
  // 1 left, 3 rights.
  auto res = HungarianMaxWeight({{1.0, 9.0, 4.0}});
  EXPECT_DOUBLE_EQ(res.total_weight, 9.0);
  EXPECT_EQ(res.match_left[0], 1);
  // 3 lefts, 1 right: only the best left is matched.
  auto res2 = HungarianMaxWeight({{2.0}, {7.0}, {4.0}});
  EXPECT_DOUBLE_EQ(res2.total_weight, 7.0);
  EXPECT_EQ(res2.match_left[1], 0);
}

TEST(MaxWeightTaskMatchingTest, SharedWorkerTakesHeavierTask) {
  // r0 (weight 3.9) and r1 (weight 2.1) both reach only w0: pick r0.
  auto g = BipartiteGraph::FromEdges(2, 1, {{0, 0}, {1, 0}});
  auto res = MaxWeightTaskMatching(g, {3.9, 2.1});
  EXPECT_DOUBLE_EQ(res.total_weight, 3.9);
  EXPECT_EQ(res.matching.match_left[0], 0);
  EXPECT_EQ(res.matching.match_left[1], Matching::kUnmatched);
}

TEST(MaxWeightTaskMatchingTest, HeavyTaskForcesReroute) {
  // l0-{r0}, l1-{r0,r1}; l1 heavier, processed first, takes r0; l0 must
  // still be served via rerouting l1 to r1.
  auto g = BipartiteGraph::FromEdges(2, 2, {{0, 0}, {1, 0}, {1, 1}});
  auto res = MaxWeightTaskMatching(g, {1.0, 10.0});
  EXPECT_DOUBLE_EQ(res.total_weight, 11.0);
  EXPECT_EQ(res.matching.size, 2);
}

TEST(MaxWeightTaskMatchingTest, NegativeWeightsExcluded) {
  auto g = BipartiteGraph::FromEdges(2, 2, {{0, 0}, {1, 1}});
  auto res = MaxWeightTaskMatching(g, {-1.0, 2.0});
  EXPECT_DOUBLE_EQ(res.total_weight, 2.0);
  EXPECT_EQ(res.matching.match_left[0], Matching::kUnmatched);
}

TEST(MaxWeightTaskMatchingTest, DeterministicTieBreakByIndex) {
  auto g = BipartiteGraph::FromEdges(2, 1, {{0, 0}, {1, 0}});
  auto res = MaxWeightTaskMatching(g, {5.0, 5.0});
  EXPECT_EQ(res.matching.match_left[0], 0);  // lower index wins ties
}

class GreedyVsHungarianTest : public ::testing::TestWithParam<int> {};

TEST_P(GreedyVsHungarianTest, MatroidGreedyIsExactForTaskSideWeights) {
  // The core optimality claim behind Definition 5's evaluation: for weights
  // attached to the left (task) side, greedy-with-augmentation equals the
  // Hungarian optimum. Random sweep across sizes/densities.
  Rng rng(1000 + GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    const int nl = 1 + static_cast<int>(rng.NextBounded(14));
    const int nr = 1 + static_cast<int>(rng.NextBounded(14));
    const double density = 0.1 + 0.2 * (GetParam() % 4);
    std::vector<std::pair<int, int>> edges;
    std::vector<std::vector<double>> dense(
        nl, std::vector<double>(nr, 0.0));
    std::vector<double> weights(nl);
    for (int l = 0; l < nl; ++l) {
      weights[l] = rng.NextDouble(0.1, 20.0);
    }
    for (int l = 0; l < nl; ++l) {
      for (int r = 0; r < nr; ++r) {
        if (rng.NextBernoulli(density)) {
          edges.push_back({l, r});
          dense[l][r] = weights[l];
        }
      }
    }
    auto g = BipartiteGraph::FromEdges(nl, nr, std::move(edges));
    const auto greedy = MaxWeightTaskMatching(g, weights);
    const auto hung = HungarianMaxWeight(dense);
    ASSERT_NEAR(greedy.total_weight, hung.total_weight, 1e-9)
        << "trial " << trial << " nl=" << nl << " nr=" << nr;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, GreedyVsHungarianTest,
                         ::testing::Range(0, 8));

TEST(MaxWeightTaskMatchingDeathTest, WeightArityChecked) {
  auto g = BipartiteGraph::FromEdges(2, 1, {{0, 0}});
  EXPECT_DEATH(MaxWeightTaskMatching(g, {1.0}), "Check failed");
}

}  // namespace
}  // namespace maps
