// End-to-end reproduction of the paper's running example (Examples 1, 3, 5):
// two tasks sharing a single reachable worker plus one independent task,
// Table 1 acceptance ratios, candidate prices {1, 2, 3}.
//
// The paper derives: the shared-supply grid should be priced at 3, the
// independent grid at 2, and these prices yield the optimal expected total
// revenue 4.075 (reported as 4.1).

#include <gtest/gtest.h>

#include "../test_util.h"
#include "pricing/maps.h"
#include "pricing/oracle_search.h"

namespace maps {
namespace {

using testing_util::MakeTask;
using testing_util::MakeWorker;
using testing_util::TableOneOracle;

class PaperExampleTest : public ::testing::Test {
 protected:
  PaperExampleTest()
      : grid_(GridPartition::Make(Rect{0, 0, 8, 8}, 4, 4).ValueOrDie()),
        oracle_(TableOneOracle(grid_.num_cells(), /*seed=*/5)) {}

  /// r1 (d=1.3) and r2 (d=0.7) in one grid reachable only by w1; r3 (d=1.0)
  /// in another grid reachable by w2 and w3.
  MarketSnapshot MakeExampleSnapshot() {
    std::vector<Task> tasks = {
        MakeTask(grid_, 0, {1.0, 5.0}, 1.3),   // r1, cell 8
        MakeTask(grid_, 1, {1.5, 5.0}, 0.7),   // r2, cell 8
        MakeTask(grid_, 2, {5.0, 3.0}, 1.0),   // r3, cell 6
    };
    std::vector<Worker> workers = {
        MakeWorker(grid_, 0, {1.2, 5.0}, 0.6),  // w1 -> r1, r2
        MakeWorker(grid_, 1, {5.0, 3.2}, 0.5),  // w2 -> r3
        MakeWorker(grid_, 2, {5.2, 3.0}, 0.5),  // w3 -> r3
    };
    return MarketSnapshot(&grid_, 0, std::move(tasks), std::move(workers));
  }

  MapsOptions ExampleOptions() {
    MapsOptions opts;
    opts.pricing.explicit_ladder = {1.0, 2.0, 3.0};
    return opts;
  }

  GridPartition grid_;
  DemandOracle oracle_;
};

TEST_F(PaperExampleTest, GraphStructureMatchesFigure1b) {
  MarketSnapshot snap = MakeExampleSnapshot();
  const BipartiteGraph& g = snap.graph();
  // "at most two tasks can be served and at most one of r1 and r2".
  EXPECT_EQ(g.Degree(0), 1);
  EXPECT_EQ(g.Degree(1), 1);
  EXPECT_EQ(g.Neighbors(0)[0], 0);
  EXPECT_EQ(g.Neighbors(1)[0], 0);
  EXPECT_EQ(g.Degree(2), 2);
}

TEST_F(PaperExampleTest, MapsRecoversPaperPrices) {
  Maps maps_strategy(ExampleOptions());
  DemandOracle history = oracle_.Fork(1);
  ASSERT_TRUE(maps_strategy.Warmup(grid_, &history).ok());
  // Base price: every grid's ladder optimum under Table 1 is 2.
  EXPECT_DOUBLE_EQ(maps_strategy.base_price(), 2.0);

  MarketSnapshot snap = MakeExampleSnapshot();
  std::vector<double> prices;
  ASSERT_TRUE(maps_strategy.PriceRound(snap, &prices).ok());

  const GridId grid_a = grid_.CellOf({1.0, 5.0});  // r1/r2's market
  const GridId grid_b = grid_.CellOf({5.0, 3.0});  // r3's market
  EXPECT_DOUBLE_EQ(prices[grid_a], 3.0)
      << "limited shared supply should surge the price";
  EXPECT_DOUBLE_EQ(prices[grid_b], 2.0)
      << "sufficient supply keeps the Myerson price";

  // Supply allocation: one worker serves grid A, one serves grid B.
  EXPECT_EQ(maps_strategy.last_supply()[grid_a], 1);
  EXPECT_EQ(maps_strategy.last_supply()[grid_b], 1);
}

TEST_F(PaperExampleTest, PaperPricesAreLadderOptimal) {
  // Exhaustive check (Example 3's claim): (3, 2) maximizes the exact
  // expected revenue over all 9 price assignments, with value 4.075.
  MarketSnapshot snap = MakeExampleSnapshot();
  auto ladder = PriceLadder::FromPrices({1.0, 2.0, 3.0}).ValueOrDie();
  auto best = OracleSearch(snap, oracle_, ladder).ValueOrDie();

  const GridId grid_a = grid_.CellOf({1.0, 5.0});
  const GridId grid_b = grid_.CellOf({5.0, 3.0});
  EXPECT_DOUBLE_EQ(best.grid_prices[grid_a], 3.0);
  EXPECT_DOUBLE_EQ(best.grid_prices[grid_b], 2.0);
  EXPECT_NEAR(best.expected_revenue, 4.075, 1e-9);
}

TEST_F(PaperExampleTest, MapsAchievesTheOptimalExpectedRevenue) {
  Maps maps_strategy(ExampleOptions());
  DemandOracle history = oracle_.Fork(1);
  ASSERT_TRUE(maps_strategy.Warmup(grid_, &history).ok());
  MarketSnapshot snap = MakeExampleSnapshot();
  std::vector<double> prices;
  ASSERT_TRUE(maps_strategy.PriceRound(snap, &prices).ok());
  EXPECT_NEAR(ExpectedRevenueOfPrices(snap, oracle_, prices), 4.075, 1e-9);
}

TEST_F(PaperExampleTest, UnitPriceTwoIsOnlyOptimalWithoutRangeConstraints) {
  // Example 1's opening observation: if every worker could perform every
  // task, a uniform price of 2 would be optimal; with the range constraints
  // it no longer is.
  MarketSnapshot snap = MakeExampleSnapshot();
  std::vector<double> uniform2(grid_.num_cells(), 2.0);
  std::vector<double> paper_prices(grid_.num_cells(), 2.0);
  paper_prices[grid_.CellOf({1.0, 5.0})] = 3.0;
  EXPECT_LT(ExpectedRevenueOfPrices(snap, oracle_, uniform2),
            ExpectedRevenueOfPrices(snap, oracle_, paper_prices));
}

TEST_F(PaperExampleTest, DeltaTraceMatchesExampleFive) {
  // Example 5: grid A's first admitted increase (3 = d_r1 * index...) is
  // larger than grid B's (1.6); both grids admit exactly one worker.
  Maps maps_strategy(ExampleOptions());
  DemandOracle history = oracle_.Fork(1);
  ASSERT_TRUE(maps_strategy.Warmup(grid_, &history).ok());
  MarketSnapshot snap = MakeExampleSnapshot();
  std::vector<double> prices;
  ASSERT_TRUE(maps_strategy.PriceRound(snap, &prices).ok());

  const GridId grid_a = grid_.CellOf({1.0, 5.0});
  const GridId grid_b = grid_.CellOf({5.0, 3.0});
  const auto& trace = maps_strategy.last_delta_trace();
  ASSERT_EQ(trace[grid_a].size(), 1u);
  ASSERT_EQ(trace[grid_b].size(), 1u);
  EXPECT_GT(trace[grid_a][0], trace[grid_b][0]);
}

}  // namespace
}  // namespace maps
