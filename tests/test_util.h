// Shared builders for pricing/simulation tests.

#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <istream>
#include <memory>
#include <vector>

#include "market/demand_oracle.h"
#include "market/market_state.h"
#include "rng/random.h"
#include "service/replay_log.h"
#include "util/result.h"

namespace maps {
namespace testing_util {

/// Builds a task with an explicit travel distance (destination is synthetic).
inline Task MakeTask(const GridPartition& grid, TaskId id, Point origin,
                     double distance, int32_t period = 0) {
  Task t;
  t.id = id;
  t.period = period;
  t.origin = origin;
  t.destination = Point{origin.x + distance, origin.y};
  t.distance = distance;
  t.grid = grid.CellOf(origin);
  return t;
}

inline Worker MakeWorker(const GridPartition& grid, WorkerId id, Point loc,
                         double radius, int32_t period = 0) {
  Worker w;
  w.id = id;
  w.period = period;
  w.location = loc;
  w.radius = radius;
  w.grid = grid.CellOf(loc);
  return w;
}

/// A random small market over `grid`: tasks and workers scattered uniformly,
/// worker radii in [r_lo, r_hi].
inline MarketSnapshot RandomSnapshot(const GridPartition& grid, Rng& rng,
                                     int num_tasks, int num_workers,
                                     double r_lo, double r_hi) {
  const Rect& region = grid.region();
  std::vector<Task> tasks;
  for (int i = 0; i < num_tasks; ++i) {
    const Point o{rng.NextDouble(region.min_x, region.max_x),
                  rng.NextDouble(region.min_y, region.max_y)};
    tasks.push_back(MakeTask(grid, i, o, rng.NextDouble(0.5, 5.0)));
  }
  std::vector<Worker> workers;
  for (int i = 0; i < num_workers; ++i) {
    const Point l{rng.NextDouble(region.min_x, region.max_x),
                  rng.NextDouble(region.min_y, region.max_y)};
    workers.push_back(MakeWorker(grid, i, l, rng.NextDouble(r_lo, r_hi)));
  }
  return MarketSnapshot(&grid, 0, std::move(tasks), std::move(workers));
}

/// An oracle with Table 1's acceptance ratios in every grid.
inline DemandOracle TableOneOracle(int num_grids, uint64_t seed = 1) {
  TabulatedDemand proto({1.0, 2.0, 3.0}, {0.9, 0.8, 0.5});
  return DemandOracle::Make(ReplicateDemand(proto, num_grids), seed)
      .ValueOrDie();
}

/// \brief Drains a ReplayEventStream into memory: every event of `in`,
/// or the stream's first error (which carries the line number). `stats`,
/// when given, receives the stream's skip/load counters.
inline Result<std::vector<ReplayEvent>> DrainReplayStream(
    std::istream& in, const ReplayLoadOptions& options = {},
    ReplayLoadStats* stats = nullptr) {
  ReplayEventStream stream(in, options);
  std::vector<ReplayEvent> events;
  ReplayEvent ev;
  while (true) {
    MAPS_ASSIGN_OR_RETURN(const bool more, stream.Next(&ev));
    if (!more) break;
    events.push_back(ev);
  }
  if (stats != nullptr) *stats = stream.stats();
  return events;
}

/// \brief True when two events agree in every field, doubles compared by
/// bit pattern (so NaN equals NaN and 0.0 differs from -0.0).
inline bool SameReplayEvent(const ReplayEvent& a, const ReplayEvent& b) {
  const auto same = [](double x, double y) {
    return std::bit_cast<uint64_t>(x) == std::bit_cast<uint64_t>(y);
  };
  return a.kind == b.kind && a.task.id == b.task.id &&
         a.task.period == b.task.period &&
         same(a.task.origin.x, b.task.origin.x) &&
         same(a.task.origin.y, b.task.origin.y) &&
         same(a.task.destination.x, b.task.destination.x) &&
         same(a.task.destination.y, b.task.destination.y) &&
         same(a.task.distance, b.task.distance) &&
         a.task.grid == b.task.grid && same(a.valuation, b.valuation) &&
         a.has_valuation == b.has_valuation && a.worker.id == b.worker.id &&
         a.worker.period == b.worker.period &&
         same(a.worker.location.x, b.worker.location.x) &&
         same(a.worker.location.y, b.worker.location.y) &&
         same(a.worker.radius, b.worker.radius) &&
         a.worker.duration == b.worker.duration &&
         a.worker.grid == b.worker.grid && a.id == b.id &&
         a.accepted == b.accepted;
}

/// \brief Welford's online mean/variance accumulator for statistical
/// assertions over sampled values.
class OnlineMeanVar {
 public:
  void Add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
  }

  int64_t count() const { return n_; }
  double mean() const { return mean_; }
  double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  double stddev() const { return std::sqrt(variance()); }

  void Reset() {
    n_ = 0;
    mean_ = 0.0;
    m2_ = 0.0;
  }

 private:
  int64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

}  // namespace testing_util
}  // namespace maps
