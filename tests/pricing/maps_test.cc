#include "pricing/maps.h"

#include <gtest/gtest.h>

#include <cmath>

#include "../test_util.h"
#include "pricing/oracle_search.h"
#include "util/thread_pool.h"

namespace maps {
namespace {

using testing_util::RandomSnapshot;
using testing_util::TableOneOracle;

MapsOptions DefaultOptions() {
  MapsOptions opts;
  opts.pricing.explicit_ladder = {1.0, 1.5, 2.0, 2.5, 3.0};
  return opts;
}

DemandOracle UniformOracle(int num_grids, uint64_t seed) {
  UniformDemand proto(1.0, 5.0);
  return DemandOracle::Make(ReplicateDemand(proto, num_grids), seed)
      .ValueOrDie();
}

TEST(MapsTest, RequiresWarmup) {
  Maps strategy(DefaultOptions());
  auto grid = GridPartition::Make(Rect{0, 0, 10, 10}, 2, 2).ValueOrDie();
  MarketSnapshot snap(&grid, 0, {}, {});
  std::vector<double> prices;
  EXPECT_EQ(strategy.PriceRound(snap, &prices).code(),
            StatusCode::kFailedPrecondition);
}

TEST(MapsTest, PricesStayWithinLadderBounds) {
  auto grid = GridPartition::Make(Rect{0, 0, 20, 20}, 4, 4).ValueOrDie();
  Rng rng(31);
  Maps strategy(DefaultOptions());
  DemandOracle oracle = UniformOracle(grid.num_cells(), 3);
  DemandOracle history = oracle.Fork(0);
  ASSERT_TRUE(strategy.Warmup(grid, &history).ok());
  for (int round = 0; round < 10; ++round) {
    MarketSnapshot snap = RandomSnapshot(grid, rng, 12, 6, 1.0, 8.0);
    std::vector<double> prices;
    ASSERT_TRUE(strategy.PriceRound(snap, &prices).ok());
    ASSERT_EQ(static_cast<int>(prices.size()), grid.num_cells());
    for (double p : prices) {
      ASSERT_GE(p, 1.0);
      ASSERT_LE(p, 3.0);
    }
  }
}

TEST(MapsTest, DeterministicAcrossIdenticalRuns) {
  auto grid = GridPartition::Make(Rect{0, 0, 20, 20}, 3, 3).ValueOrDie();
  std::vector<double> prices1, prices2;
  for (std::vector<double>* out : {&prices1, &prices2}) {
    Maps strategy(DefaultOptions());
    DemandOracle oracle = UniformOracle(grid.num_cells(), 17);
    DemandOracle history = oracle.Fork(4);
    ASSERT_TRUE(strategy.Warmup(grid, &history).ok());
    Rng rng(55);
    MarketSnapshot snap = RandomSnapshot(grid, rng, 15, 8, 2.0, 9.0);
    ASSERT_TRUE(strategy.PriceRound(snap, out).ok());
  }
  EXPECT_EQ(prices1, prices2);
}

TEST(MapsTest, RepeatedRoundsOnSameSnapshotAreIdentical) {
  // Workspace-reuse guard: PriceRound pools its matching/heap buffers
  // across rounds; no state may leak from one round into the next. Pricing
  // the same snapshot repeatedly (no feedback in between) must reproduce
  // bit-identical prices, supply levels, and delta traces.
  auto grid = GridPartition::Make(Rect{0, 0, 20, 20}, 3, 3).ValueOrDie();
  Maps strategy(DefaultOptions());
  DemandOracle oracle = UniformOracle(grid.num_cells(), 17);
  DemandOracle history = oracle.Fork(4);
  ASSERT_TRUE(strategy.Warmup(grid, &history).ok());
  Rng rng(55);
  MarketSnapshot snap = RandomSnapshot(grid, rng, 20, 10, 2.0, 9.0);

  std::vector<double> first_prices;
  ASSERT_TRUE(strategy.PriceRound(snap, &first_prices).ok());
  const std::vector<int> first_supply = strategy.last_supply();
  const auto first_trace = strategy.last_delta_trace();

  // Interleave a differently-shaped snapshot so the pooled buffers must
  // resize back, then re-price the original.
  MarketSnapshot other = RandomSnapshot(grid, rng, 7, 3, 1.0, 4.0);
  std::vector<double> other_prices;
  ASSERT_TRUE(strategy.PriceRound(other, &other_prices).ok());

  std::vector<double> second_prices;
  ASSERT_TRUE(strategy.PriceRound(snap, &second_prices).ok());
  EXPECT_EQ(first_prices, second_prices);
  EXPECT_EQ(first_supply, strategy.last_supply());
  EXPECT_EQ(first_trace, strategy.last_delta_trace());
}

TEST(MapsTest, StableGridCountPreservesStateAndChangeIsCountedReset) {
  // EnsureGridState used to wipe every grid's UCB/change statistics
  // SILENTLY whenever the grid count changed. Policy now: a stable count
  // never touches learned state; a changed count still resets (indices
  // denote different geographic cells under a new partition, so carrying
  // statistics over by position would mislearn), but the reset is logged
  // and counted.
  auto small = GridPartition::Make(Rect{0, 0, 20, 20}, 2, 2).ValueOrDie();
  auto large = GridPartition::Make(Rect{0, 0, 20, 20}, 3, 3).ValueOrDie();
  Maps strategy(DefaultOptions());
  DemandOracle oracle = UniformOracle(small.num_cells(), 3);
  DemandOracle history = oracle.Fork(0);
  ASSERT_TRUE(strategy.Warmup(small, &history).ok());

  // Accumulate online observations on the 4 original grids.
  Rng rng(88);
  std::vector<double> prices;
  for (int round = 0; round < 3; ++round) {
    MarketSnapshot snap = RandomSnapshot(small, rng, 12, 6, 2.0, 8.0);
    ASSERT_TRUE(strategy.PriceRound(snap, &prices).ok());
    std::vector<bool> accepted(snap.tasks().size(), true);
    strategy.ObserveFeedback(snap, prices, accepted);
  }
  std::vector<int64_t> before(4);
  for (int g = 0; g < 4; ++g) before[g] = strategy.UcbObservations(g);
  for (int g = 0; g < 4; ++g) ASSERT_GT(before[g], 0);
  EXPECT_EQ(strategy.grid_state_resets(), 0);

  // Same grid count again: nothing is reset.
  MarketSnapshot same = RandomSnapshot(small, rng, 10, 5, 2.0, 8.0);
  ASSERT_TRUE(strategy.PriceRound(same, &prices).ok());
  for (int g = 0; g < 4; ++g) {
    EXPECT_EQ(strategy.UcbObservations(g), before[g]) << "grid " << g;
  }
  EXPECT_EQ(strategy.grid_state_resets(), 0);

  // Re-partition to 3x3: a counted (and logged) full reset, fresh state.
  MarketSnapshot repart = RandomSnapshot(large, rng, 12, 6, 2.0, 8.0);
  ASSERT_TRUE(strategy.PriceRound(repart, &prices).ok());
  ASSERT_EQ(static_cast<int>(prices.size()), 9);
  EXPECT_EQ(strategy.grid_state_resets(), 1);
  for (int g = 0; g < 9; ++g) {
    EXPECT_EQ(strategy.UcbObservations(g), 0) << "grid " << g;
  }
}

TEST(MapsTest, DeltaTraceNonIncreasingPerGrid) {
  // Lemma 9: within a round, a grid's admitted increases are non-increasing.
  auto grid = GridPartition::Make(Rect{0, 0, 30, 30}, 3, 3).ValueOrDie();
  Rng rng(101);
  for (int trial = 0; trial < 25; ++trial) {
    Maps strategy(DefaultOptions());
    DemandOracle oracle = UniformOracle(grid.num_cells(), trial);
    DemandOracle history = oracle.Fork(0);
    ASSERT_TRUE(strategy.Warmup(grid, &history).ok());
    MarketSnapshot snap = RandomSnapshot(grid, rng, 30, 20, 3.0, 15.0);
    std::vector<double> prices;
    ASSERT_TRUE(strategy.PriceRound(snap, &prices).ok());
    // Lemma 9 is proven on the continuous concave revenue curve; on a
    // discrete ladder the index can plateau and later jump, and MAPS
    // deliberately grows through plateaus at negligible priority (see
    // maps.cc). The lemma therefore applies to the prefix of genuine
    // increases before the first plateau step.
    constexpr double kPlateauCutoff = 1e-6;
    for (const auto& trace : strategy.last_delta_trace()) {
      for (size_t i = 0; i < trace.size(); ++i) {
        ASSERT_GT(trace[i], 0.0) << "admitted a non-positive increase";
      }
      for (size_t i = 1; i < trace.size(); ++i) {
        if (trace[i] < kPlateauCutoff || trace[i - 1] < kPlateauCutoff) {
          break;
        }
        ASSERT_LE(trace[i], trace[i - 1] + 1e-9)
            << "trial " << trial
            << ": Delta increased within a grid's pre-plateau prefix";
      }
    }
  }
}

TEST(MapsTest, SupplyNeverExceedsGridDemandOrWorkerCount) {
  auto grid = GridPartition::Make(Rect{0, 0, 30, 30}, 3, 3).ValueOrDie();
  Rng rng(202);
  Maps strategy(DefaultOptions());
  DemandOracle oracle = UniformOracle(grid.num_cells(), 6);
  DemandOracle history = oracle.Fork(0);
  ASSERT_TRUE(strategy.Warmup(grid, &history).ok());
  for (int round = 0; round < 10; ++round) {
    MarketSnapshot snap = RandomSnapshot(grid, rng, 25, 10, 2.0, 12.0);
    std::vector<double> prices;
    ASSERT_TRUE(strategy.PriceRound(snap, &prices).ok());
    int total_supply = 0;
    for (int g = 0; g < grid.num_cells(); ++g) {
      const int n = strategy.last_supply()[g];
      ASSERT_GE(n, 0);
      ASSERT_LE(n, static_cast<int>(snap.TasksInGrid(g).size()));
      total_supply += n;
    }
    ASSERT_LE(total_supply, static_cast<int>(snap.workers().size()));
  }
}

class MapsApproximationTest : public ::testing::TestWithParam<int> {};

TEST_P(MapsApproximationTest, NearOptimalOnBruteForcedInstances) {
  // Theorem 8-flavored check: MAPS's prices achieve a large fraction of the
  // brute-force optimum on tiny instances. The bound is (1 - 1/e) on the
  // L approximation with exact acceptance ratios; we allow slack for the
  // sampling error of the learned ratios.
  const int seed = GetParam();
  auto grid = GridPartition::Make(Rect{0, 0, 12, 12}, 2, 2).ValueOrDie();
  Rng rng(9000 + seed);
  MapsOptions opts;
  opts.pricing.explicit_ladder = {1.0, 2.0, 3.0};
  Maps strategy(opts);
  DemandOracle oracle = TableOneOracle(grid.num_cells(), 70 + seed);
  DemandOracle history = oracle.Fork(0);
  ASSERT_TRUE(strategy.Warmup(grid, &history).ok());

  MarketSnapshot snap = RandomSnapshot(grid, rng, 6, 4, 2.0, 8.0);
  std::vector<double> prices;
  ASSERT_TRUE(strategy.PriceRound(snap, &prices).ok());
  const double achieved = ExpectedRevenueOfPrices(snap, oracle, prices);

  auto ladder = PriceLadder::FromPrices({1.0, 2.0, 3.0}).ValueOrDie();
  const double optimal =
      OracleSearch(snap, oracle, ladder).ValueOrDie().expected_revenue;
  if (optimal <= 0.0) {
    GTEST_SKIP() << "degenerate instance: no task is reachable";
  }
  EXPECT_GE(achieved, 0.5 * optimal)
      << "achieved " << achieved << " vs optimal " << optimal;
}

INSTANTIATE_TEST_SUITE_P(Seeds, MapsApproximationTest,
                         ::testing::Range(0, 12));

TEST(MapsTest, PaperLiteralDeltaModeAlsoWorks) {
  auto grid = GridPartition::Make(Rect{0, 0, 20, 20}, 2, 2).ValueOrDie();
  MapsOptions opts = DefaultOptions();
  opts.delta_mode = MapsOptions::DeltaMode::kPaperLiteral;
  Maps strategy(opts);
  DemandOracle oracle = UniformOracle(grid.num_cells(), 8);
  DemandOracle history = oracle.Fork(0);
  ASSERT_TRUE(strategy.Warmup(grid, &history).ok());
  Rng rng(66);
  MarketSnapshot snap = RandomSnapshot(grid, rng, 10, 5, 2.0, 10.0);
  std::vector<double> prices;
  ASSERT_TRUE(strategy.PriceRound(snap, &prices).ok());
  for (double p : prices) {
    ASSERT_GE(p, 1.0);
    ASSERT_LE(p, 3.0);
  }
}

TEST(MapsTest, FeedbackUpdatesUcbAndChangeDetectorResets) {
  auto grid = GridPartition::Make(Rect{0, 0, 10, 10}, 1, 1).ValueOrDie();
  MapsOptions opts;
  opts.pricing.explicit_ladder = {1.0, 2.0, 3.0};
  opts.change_window = 25;
  Maps strategy(opts);
  DemandOracle oracle = TableOneOracle(1, 4);
  DemandOracle history = oracle.Fork(0);
  ASSERT_TRUE(strategy.Warmup(grid, &history).ok());

  // Feed rounds whose acceptance flips from "always" to "never": the
  // binomial detector must fire at least once.
  Rng rng(10);
  std::vector<double> prices;
  for (int round = 0; round < 40; ++round) {
    MarketSnapshot snap = RandomSnapshot(grid, rng, 10, 5, 2.0, 6.0);
    ASSERT_TRUE(strategy.PriceRound(snap, &prices).ok());
    const bool accept_all = round < 20;
    std::vector<bool> accepted(snap.tasks().size(), accept_all);
    strategy.ObserveFeedback(snap, prices, accepted);
  }
  EXPECT_GT(strategy.change_resets(), 0);
}

TEST(MapsTest, NoWarmStartStillPricesViaExploration) {
  auto grid = GridPartition::Make(Rect{0, 0, 10, 10}, 2, 2).ValueOrDie();
  MapsOptions opts = DefaultOptions();
  opts.warm_start_from_base = false;
  Maps strategy(opts);
  ASSERT_TRUE(strategy.Warmup(grid, nullptr).ok());  // no probes needed
  Rng rng(12);
  MarketSnapshot snap = RandomSnapshot(grid, rng, 8, 4, 2.0, 8.0);
  std::vector<double> prices;
  ASSERT_TRUE(strategy.PriceRound(snap, &prices).ok());
  for (double p : prices) {
    ASSERT_GE(p, 1.0);
    ASSERT_LE(p, 3.0);
  }
}

TEST(MapsTest, AmpleSupplyConvergesToPerGridMyersonRung) {
  // Plateau regression test: with far more workers than tasks, every grid
  // must end at (close to) its ladder-optimal Myerson rung — not stranded
  // at a high intersection price by a zero-Delta plateau of the
  // discretized index.
  auto grid = GridPartition::Make(Rect{0, 0, 20, 20}, 2, 2).ValueOrDie();
  MapsOptions opts;
  opts.pricing.explicit_ladder = {1.0, 1.5, 2.0, 2.5, 3.0, 4.0};
  Maps strategy(opts);
  // Heterogeneous demand: one cheap grid, one expensive grid.
  std::vector<std::unique_ptr<DemandModel>> models;
  models.push_back(std::make_unique<TruncatedNormalDemand>(1.5, 1.0, 1, 5));
  models.push_back(std::make_unique<TruncatedNormalDemand>(3.0, 1.0, 1, 5));
  models.push_back(std::make_unique<TruncatedNormalDemand>(2.0, 1.0, 1, 5));
  models.push_back(std::make_unique<TruncatedNormalDemand>(2.5, 1.0, 1, 5));
  DemandOracle oracle =
      DemandOracle::Make(std::move(models), 5).ValueOrDie();
  DemandOracle history = oracle.Fork(0);
  ASSERT_TRUE(strategy.Warmup(grid, &history).ok());

  // 6 tasks per grid, 40 workers covering everything: supply is ample.
  std::vector<Task> tasks;
  std::vector<Worker> workers;
  int id = 0;
  for (int g = 0; g < 4; ++g) {
    const Point center = grid.CellCenter(g);
    for (int i = 0; i < 6; ++i) {
      tasks.push_back(testing_util::MakeTask(
          grid, id++, {center.x - 2.0 + i * 0.5, center.y}, 2.0 + i));
    }
  }
  for (int i = 0; i < 40; ++i) {
    workers.push_back(testing_util::MakeWorker(
        grid, i, {1.0 + (i % 8) * 2.5, 1.0 + (i / 8) * 4.0}, 30.0));
  }
  MarketSnapshot snap(&grid, 0, std::move(tasks), std::move(workers));
  std::vector<double> prices;
  ASSERT_TRUE(strategy.PriceRound(snap, &prices).ok());

  auto ladder = PriceLadder::FromPrices({1.0, 1.5, 2.0, 2.5, 3.0, 4.0})
                    .ValueOrDie();
  for (int g = 0; g < 4; ++g) {
    // Supply grew at least until the demand curve unbinds (growth may stop
    // once the index reaches its supply-unconstrained ceiling, which can
    // happen below n = |R_tg|).
    EXPECT_GE(strategy.last_supply()[g], 3) << "grid " << g;
    // Chosen rung within one rung of the true ladder optimum.
    double best_v = -1.0;
    int best_i = 0;
    for (int i = 0; i < ladder.size(); ++i) {
      const double v =
          ladder.price(i) * oracle.TrueAcceptRatio(g, ladder.price(i));
      if (v > best_v) {
        best_v = v;
        best_i = i;
      }
    }
    const int chosen = ladder.SnapIndex(prices[g]);
    EXPECT_LE(std::abs(chosen - best_i), 1)
        << "grid " << g << " chose rung " << ladder.price(chosen)
        << " but the optimum is " << ladder.price(best_i);
  }
  // The cheap and expensive grids must be priced differently.
  EXPECT_LT(prices[0], prices[1]);
}

TEST(MapsTest, TruncatedExpectationApproxAlsoPricesSanely) {
  auto grid = GridPartition::Make(Rect{0, 0, 20, 20}, 2, 2).ValueOrDie();
  MapsOptions opts = DefaultOptions();
  opts.supply_approx = MapsOptions::SupplyApprox::kTruncatedExpectation;
  Maps strategy(opts);
  DemandOracle oracle = UniformOracle(grid.num_cells(), 8);
  DemandOracle history = oracle.Fork(0);
  ASSERT_TRUE(strategy.Warmup(grid, &history).ok());
  Rng rng(66);
  for (int round = 0; round < 5; ++round) {
    MarketSnapshot snap = RandomSnapshot(grid, rng, 12, 6, 2.0, 10.0);
    std::vector<double> prices;
    ASSERT_TRUE(strategy.PriceRound(snap, &prices).ok());
    for (double p : prices) {
      ASSERT_GE(p, 1.0);
      ASSERT_LE(p, 3.0);
    }
  }
}

TEST(MapsTest, EmptyMarketFallsBackToBasePrice) {
  auto grid = GridPartition::Make(Rect{0, 0, 10, 10}, 2, 2).ValueOrDie();
  Maps strategy(DefaultOptions());
  DemandOracle oracle = UniformOracle(grid.num_cells(), 2);
  DemandOracle history = oracle.Fork(0);
  ASSERT_TRUE(strategy.Warmup(grid, &history).ok());
  MarketSnapshot snap(&grid, 0, {}, {});
  std::vector<double> prices;
  ASSERT_TRUE(strategy.PriceRound(snap, &prices).ok());
  for (double p : prices) {
    EXPECT_DOUBLE_EQ(p, strategy.base_price());
  }
}

TEST(MapsTest, MemoryFootprintGrowsWithGrids) {
  auto small = GridPartition::Make(Rect{0, 0, 10, 10}, 2, 2).ValueOrDie();
  auto large = GridPartition::Make(Rect{0, 0, 10, 10}, 10, 10).ValueOrDie();
  Maps s1(DefaultOptions()), s2(DefaultOptions());
  DemandOracle o1 = UniformOracle(small.num_cells(), 1);
  DemandOracle o2 = UniformOracle(large.num_cells(), 1);
  ASSERT_TRUE(s1.Warmup(small, &o1).ok());
  ASSERT_TRUE(s2.Warmup(large, &o2).ok());
  EXPECT_GT(s2.MemoryFootprintBytes(), s1.MemoryFootprintBytes());
}

// ---------------------------------------------------------------------------
// Round-scoped maximizer engine (PR 4): the incremental envelope evaluation
// and the pool-sharded precompute must be bit-identical to the reference
// ladder scan and to the pool-less run, per the DESIGN.md §8/§10 policy.
// ---------------------------------------------------------------------------

/// Everything observable from a multi-round MAPS session with online
/// feedback: posted prices, supply levels, and admitted delta traces.
struct SessionTrace {
  std::vector<std::vector<double>> prices;
  std::vector<std::vector<int>> supplies;
  std::vector<std::vector<std::vector<double>>> deltas;

  bool operator==(const SessionTrace& other) const {
    return prices == other.prices && supplies == other.supplies &&
           deltas == other.deltas;
  }
};

/// Runs `rounds` PriceRound/ObserveFeedback cycles on a deterministic
/// random market. Requester valuations are drawn from a stream independent
/// of the configuration under test, so two configurations that post the
/// same prices also see the same feedback.
SessionTrace RunFeedbackSession(const MapsOptions& opts, ThreadPool* pool,
                                int rounds = 12) {
  auto grid = GridPartition::Make(Rect{0, 0, 30, 30}, 4, 4).ValueOrDie();
  Maps strategy(opts);
  if (pool != nullptr) strategy.LendPool(pool);
  DemandOracle oracle = UniformOracle(grid.num_cells(), 21);
  DemandOracle history = oracle.Fork(6);
  EXPECT_TRUE(strategy.Warmup(grid, &history).ok());
  Rng market_rng(77);
  Rng valuation_rng(78);
  SessionTrace trace;
  for (int round = 0; round < rounds; ++round) {
    MarketSnapshot snap =
        RandomSnapshot(grid, market_rng, 40, 16, 2.0, 12.0);
    std::vector<double> prices;
    EXPECT_TRUE(strategy.PriceRound(snap, &prices).ok());
    std::vector<bool> accepted(snap.tasks().size());
    for (size_t i = 0; i < snap.tasks().size(); ++i) {
      accepted[i] = valuation_rng.NextDouble(1.0, 4.0) >=
                    prices[snap.tasks()[i].grid];
    }
    strategy.ObserveFeedback(snap, prices, accepted);
    trace.prices.push_back(prices);
    trace.supplies.push_back(strategy.last_supply());
    trace.deltas.push_back(strategy.last_delta_trace());
  }
  return trace;
}

TEST(MapsPoolBackedTest, PriceRoundBitIdenticalAcrossThreadCounts) {
  const SessionTrace serial = RunFeedbackSession(DefaultOptions(), nullptr);
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    const SessionTrace pooled = RunFeedbackSession(DefaultOptions(), &pool);
    EXPECT_TRUE(pooled == serial) << threads << " threads";
  }
}

TEST(MapsPoolBackedTest, PoolSurvivesReuseAcrossSessions) {
  // One pool backing several strategy lifetimes, interleaved with other
  // submissions, must leave no residue that changes results.
  ThreadPool pool(3);
  const SessionTrace first = RunFeedbackSession(DefaultOptions(), &pool);
  const SessionTrace second = RunFeedbackSession(DefaultOptions(), &pool);
  EXPECT_TRUE(first == second);
}

TEST(MapsTest, MaximizerEngineMatchesReferenceScanExactly) {
  for (bool geometric_ladder : {false, true}) {
    MapsOptions engine_opts = DefaultOptions();
    if (geometric_ladder) engine_opts.pricing.explicit_ladder.clear();
    MapsOptions scan_opts = engine_opts;
    scan_opts.use_maximizer_engine = false;
    const SessionTrace engine = RunFeedbackSession(engine_opts, nullptr);
    const SessionTrace scan = RunFeedbackSession(scan_opts, nullptr);
    EXPECT_TRUE(engine == scan)
        << (geometric_ladder ? "geometric" : "explicit") << " ladder";
  }
}

TEST(MapsTest, MaximizerEngineMatchesScanUnderPaperLiteralDelta) {
  MapsOptions engine_opts = DefaultOptions();
  engine_opts.delta_mode = MapsOptions::DeltaMode::kPaperLiteral;
  MapsOptions scan_opts = engine_opts;
  scan_opts.use_maximizer_engine = false;
  EXPECT_TRUE(RunFeedbackSession(engine_opts, nullptr) ==
              RunFeedbackSession(scan_opts, nullptr));
}

TEST(MapsTest, PeakRoundBytesStableAcrossRepeatedRounds) {
  // Pooling regression guard: repricing identical markets must not grow
  // the per-round transient footprint once the pools are warm.
  auto grid = GridPartition::Make(Rect{0, 0, 20, 20}, 3, 3).ValueOrDie();
  Maps strategy(DefaultOptions());
  DemandOracle oracle = UniformOracle(grid.num_cells(), 17);
  DemandOracle history = oracle.Fork(4);
  ASSERT_TRUE(strategy.Warmup(grid, &history).ok());
  Rng rng(55);
  MarketSnapshot snap = RandomSnapshot(grid, rng, 30, 12, 2.0, 9.0);
  std::vector<double> prices;
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(strategy.PriceRound(snap, &prices).ok());
  }
  const size_t warm_peak = strategy.peak_round_bytes();
  ASSERT_GT(warm_peak, 0u);
  for (int round = 0; round < 50; ++round) {
    ASSERT_TRUE(strategy.PriceRound(snap, &prices).ok());
  }
  EXPECT_EQ(strategy.peak_round_bytes(), warm_peak)
      << "round scratch grew while repricing an identical market";
}

}  // namespace
}  // namespace maps
