// Golden checkpoint bytes: a fixed scripted scenario is saved through
// MarketEngine and a 2-region ShardedMarketEngine, and the size and CRC-32
// of each container are pinned. The round-trip suites cannot see a change
// that alters a writer and its reader the same way; these pins can, so any
// edit to the checkpoint codecs must leave every byte of both formats as it
// was (or bump the format version and re-pin on purpose).
//
// Everything below is built from literals and integer/IEEE-exact arithmetic
// (CellLocalStrategy keeps integer counts), so the bytes do not depend on
// the host's math library.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "../test_util.h"
#include "geo/region_partition.h"
#include "service/checkpoint.h"
#include "service/market_engine.h"
#include "service/sharded_engine.h"
#include "sharded_test_util.h"
#include "util/serial.h"

namespace maps {
namespace {

using testing_util::CellLocalStrategy;
using testing_util::MakeTask;
using testing_util::MakeWorker;

GridPartition GoldenGrid() {
  return GridPartition::Make(Rect{0, 0, 100, 100}, 4, 4).ValueOrDie();
}

Worker GoldenWorker(const GridPartition& grid, WorkerId id, Point loc) {
  Worker w = MakeWorker(grid, id, loc, 40.0);
  w.duration = 20;
  return w;
}

TEST(CheckpointGoldenTest, MarketEngineBytesArePinned) {
  const GridPartition grid = GoldenGrid();
  CellLocalStrategy strategy;
  EngineOptions options;
  options.lifecycle.single_use = false;
  options.lifecycle.speed = 10.0;
  options.lifecycle.reposition_prob = 0.5;
  options.lifecycle.reposition_seed = 5;
  MarketEngine engine(&grid, &strategy, options);
  PeriodOutcome out;

  // Period 0: six workers, five tasks with valuations and one explicit
  // decline. Rides of length 35 at speed 10 keep matched workers busy for
  // four periods.
  const Point spots[] = {{10, 10}, {30, 20}, {60, 15}, {85, 40},
                         {40, 70}, {75, 90}};
  for (WorkerId id = 1; id <= 6; ++id) {
    ASSERT_TRUE(engine.AddWorker(GoldenWorker(grid, id, spots[id - 1])).ok());
  }
  const double vals0[] = {9.0, 1.0, 7.5, 4.0, 2.5};
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(engine
                    .SubmitTask(MakeTask(grid, 10 + i, spots[i], 35.0, 0),
                                vals0[i])
                    .ok());
  }
  ASSERT_TRUE(engine.ObserveAcceptance(12, false).ok());
  ASSERT_TRUE(engine.ClosePeriod(&out).ok());
  ASSERT_FALSE(out.matches.empty());
  const WorkerId busy_id = out.matches.front().worker;

  // Period 1: every rejection counter moves.
  ASSERT_TRUE(
      engine.SubmitTask(MakeTask(grid, 20, {50, 50}, 12.0, 1), 3.0).ok());
  EXPECT_EQ(engine.SubmitTask(MakeTask(grid, 20, {50, 50}, 12.0, 1), 3.0)
                .code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(engine.RemoveWorker(999).code(), StatusCode::kNotFound);
  ASSERT_TRUE(engine.RemoveWorker(busy_id).ok());
  ASSERT_TRUE(engine.ObserveAcceptance(777, true).ok());  // orphan
  ASSERT_TRUE(engine.ClosePeriod(&out).ok());

  // An extraction tombstone: the first idle worker leaves this engine.
  std::vector<Worker> idle;
  engine.CollectIdleWorkers(&idle);
  ASSERT_GE(idle.size(), 2u);
  Worker base;
  int32_t retire_at = 0;
  ASSERT_TRUE(engine.ExtractIdleWorker(idle.front().id, &base, &retire_at)
                  .ok());

  // Open period 2: staged tasks (one without a valuation) and pending bits.
  ASSERT_TRUE(
      engine.SubmitTask(MakeTask(grid, 30, {20, 80}, 6.0, 2), 5.25).ok());
  ASSERT_TRUE(engine.SubmitTask(MakeTask(grid, 31, {90, 10}, 8.0, 2)).ok());
  ASSERT_TRUE(
      engine.SubmitTask(MakeTask(grid, 32, {45, 45}, 3.0, 2), 0.5).ok());
  ASSERT_TRUE(engine.ObserveAcceptance(31, true).ok());
  ASSERT_TRUE(engine.ObserveAcceptance(30, false).ok());

  const EngineRejectionCounters& rej = engine.rejections();
  EXPECT_GT(rej.duplicate_tasks, 0);
  EXPECT_GT(rej.unknown_worker_removals, 0);
  EXPECT_GT(rej.busy_worker_removals, 0);
  EXPECT_GT(rej.orphan_acceptances, 0);

  std::string blob;
  ASSERT_TRUE(engine.SaveCheckpoint(&blob).ok());
  EXPECT_EQ(kCheckpointFormatVersion, 3u);
  EXPECT_EQ(blob.size(), 1032u);
  EXPECT_EQ(Crc32(blob.data(), blob.size()), 2126839617u);
}

TEST(CheckpointGoldenTest, ShardedContainerBytesArePinned) {
  const GridPartition grid = GoldenGrid();
  const RegionPartition partition =
      RegionPartition::Make(grid, 2).ValueOrDie();
  CellLocalStrategy s0, s1;
  EngineOptions options;
  options.lifecycle.single_use = false;
  options.lifecycle.speed = 1000.0;  // one-period rides
  ShardedMarketEngine engine(&grid, &partition, {&s0, &s1}, options);
  PeriodOutcome out;

  // Worker 7 starts in region 0 on the row below the y = 50 seam; a
  // stitched ride ending above the seam migrates it to region 1, leaving an
  // extraction tombstone behind in region 0.
  ASSERT_TRUE(engine.AddWorker(GoldenWorker(grid, 7, {50, 45})).ok());
  ASSERT_TRUE(engine.AddWorker(GoldenWorker(grid, 8, {15, 15})).ok());
  ASSERT_TRUE(engine.AddWorker(GoldenWorker(grid, 9, {80, 85})).ok());
  Task cross;
  cross.id = 10;
  cross.origin = {50, 55};
  cross.destination = {50, 55};
  cross.distance = 10.0;
  cross.grid = grid.CellOf(cross.origin);
  ASSERT_TRUE(engine.SubmitTask(cross, 100.0).ok());
  ASSERT_TRUE(engine.ClosePeriod(&out).ok());
  ASSERT_EQ(engine.region_engine(1)->num_live_workers(), 2);

  // Period 1: accepted tasks in both regions move the cached prices, and
  // the routing layer's rejection counters move.
  ASSERT_TRUE(
      engine.SubmitTask(MakeTask(grid, 20, {20, 20}, 4.0, 1), 50.0).ok());
  ASSERT_TRUE(
      engine.SubmitTask(MakeTask(grid, 21, {70, 80}, 4.0, 1), 50.0).ok());
  EXPECT_EQ(engine.SubmitTask(MakeTask(grid, 21, {70, 80}, 4.0, 1), 1.0)
                .code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(engine.RemoveWorker(4242).code(), StatusCode::kNotFound);
  ASSERT_TRUE(engine.ObserveAcceptance(555, false).ok());  // orphan
  ASSERT_TRUE(engine.ClosePeriod(&out).ok());

  // Open period 2: routed tasks in both regions and pending bits.
  ASSERT_TRUE(
      engine.SubmitTask(MakeTask(grid, 30, {10, 30}, 5.0, 2), 2.75).ok());
  ASSERT_TRUE(engine.SubmitTask(MakeTask(grid, 31, {60, 90}, 7.0, 2)).ok());
  ASSERT_TRUE(
      engine.SubmitTask(MakeTask(grid, 32, {90, 55}, 2.0, 2), 8.0).ok());
  ASSERT_TRUE(engine.ObserveAcceptance(31, true).ok());
  ASSERT_TRUE(engine.ObserveAcceptance(32, false).ok());

  const EngineRejectionCounters rej = engine.rejections();
  EXPECT_GT(rej.duplicate_tasks, 0);
  EXPECT_GT(rej.unknown_worker_removals, 0);
  EXPECT_GT(rej.orphan_acceptances, 0);

  std::string blob;
  ASSERT_TRUE(engine.SaveCheckpoint(&blob).ok());
  EXPECT_EQ(kShardedCheckpointFormatVersion, 2u);
  EXPECT_EQ(blob.size(), 2143u);
  EXPECT_EQ(Crc32(blob.data(), blob.size()), 3253012306u);
}

}  // namespace
}  // namespace maps
