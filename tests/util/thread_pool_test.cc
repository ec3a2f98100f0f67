#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <vector>

namespace maps {
namespace {

TEST(SplitRangeTest, CoversRangeContiguouslyWithNearEqualShards) {
  for (int64_t n : {0, 1, 2, 7, 64, 65, 1000}) {
    for (int64_t max_shards : {1, 2, 8, 64}) {
      const auto shards = SplitRange(n, max_shards);
      if (n == 0) {
        EXPECT_TRUE(shards.empty());
        continue;
      }
      ASSERT_EQ(static_cast<int64_t>(shards.size()),
                std::min(n, max_shards));
      int64_t expected_begin = 0;
      int64_t min_size = n, max_size = 0;
      for (const IndexRange& r : shards) {
        EXPECT_EQ(r.begin, expected_begin);
        EXPECT_GT(r.size(), 0);
        min_size = std::min(min_size, r.size());
        max_size = std::max(max_size, r.size());
        expected_begin = r.end;
      }
      EXPECT_EQ(expected_begin, n);
      EXPECT_LE(max_size - min_size, 1);
    }
  }
}

TEST(SplitRangeTest, IsPureFunctionOfSizeNotThreads) {
  // The determinism policy hinges on this: boundaries depend on (n, cap)
  // only, so partial results are identical however many workers run them.
  const auto a = SplitRange(1234, 64);
  const auto b = SplitRange(1234, 64);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].begin, b[i].begin);
    EXPECT_EQ(a[i].end, b[i].end);
  }
}

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const int64_t n = 10000;
  std::vector<std::atomic<int>> visits(n);
  ParallelFor(&pool, SplitRange(n, 64),
              [&](int /*shard*/, const IndexRange& range, int /*worker*/) {
                for (int64_t i = range.begin; i < range.end; ++i) {
                  visits[i].fetch_add(1, std::memory_order_relaxed);
                }
              });
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, WorkerIndicesStayWithinPoolSize) {
  ThreadPool pool(3);
  std::atomic<bool> ok{true};
  ParallelFor(&pool, SplitRange(500, 64),
              [&](int /*shard*/, const IndexRange&, int worker) {
                if (worker < 0 || worker >= pool.num_threads()) ok = false;
              });
  EXPECT_TRUE(ok);
}

TEST(ThreadPoolTest, ParallelReduceIsDeterministicAcrossThreadCounts) {
  // Partial sums over fixed shards folded in shard order: bit-identical for
  // 1, 2, and 8 threads even though double addition is not associative in
  // general.
  const int64_t n = 4321;
  auto run = [&](int threads) {
    ThreadPool pool(threads);
    return ParallelReduce<double>(
        &pool, SplitRange(n, 64), 0.0,
        [](int /*shard*/, const IndexRange& range, int /*worker*/) {
          double sum = 0.0;
          for (int64_t i = range.begin; i < range.end; ++i) {
            sum += 1.0 / static_cast<double>(i + 1);  // rounding-sensitive
          }
          return sum;
        },
        [](double acc, double partial) { return acc + partial; });
  };
  const double r1 = run(1);
  EXPECT_EQ(r1, run(2));
  EXPECT_EQ(r1, run(8));
}

TEST(ThreadPoolTest, PoolIsReusableAcrossInvocations) {
  // One pool backs many invocations without leaking state between them:
  // repeated identical reductions return identical results, interleaved
  // with differently-shaped work.
  ThreadPool pool(4);
  auto sum_to = [&](int64_t n) {
    return ParallelReduce<int64_t>(
        &pool, SplitRange(n, 16), int64_t{0},
        [](int /*shard*/, const IndexRange& range, int /*worker*/) {
          int64_t s = 0;
          for (int64_t i = range.begin; i < range.end; ++i) s += i;
          return s;
        },
        [](int64_t acc, int64_t partial) { return acc + partial; });
  };
  const int64_t first = sum_to(1000);
  EXPECT_EQ(first, 1000 * 999 / 2);
  EXPECT_EQ(sum_to(37), 37 * 36 / 2);  // different shape in between
  EXPECT_EQ(sum_to(1000), first);
}

TEST(ThreadPoolTest, NullPoolRunsInline) {
  std::vector<int> order;
  ParallelFor(nullptr, SplitRange(10, 4),
              [&](int shard, const IndexRange&, int worker) {
                EXPECT_EQ(worker, 0);
                order.push_back(shard);
              });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(ThreadPoolTest, NestedParallelForOnAWorkerRunsInline) {
  // Two workers, four outer shards, each issuing a reduction on the SAME
  // pool: were the inner shards queued, both workers would wait on work
  // queued behind the outer shards they are running. A ParallelFor from a
  // pool worker runs inline there instead (worker index 0) and returns
  // exactly the null-pool result.
  const auto inner_sum = [](ThreadPool* pool, int outer, int* max_worker) {
    return ParallelReduce<double>(
        pool, SplitRange(1000, 64), 0.0,
        [&](int /*shard*/, const IndexRange& range, int worker) {
          *max_worker = std::max(*max_worker, worker);
          double s = 0.0;
          for (int64_t i = range.begin; i < range.end; ++i) {
            s += 1.0 / static_cast<double>(i + 1 + outer);
          }
          return s;
        },
        [](double acc, double partial) { return acc + partial; });
  };
  ThreadPool pool(2);
  std::vector<double> inner(4, 0.0);
  std::vector<int> inner_max_worker(4, 0);
  ParallelFor(&pool, SplitRange(4, 4),
              [&](int shard, const IndexRange& /*range*/, int /*worker*/) {
                inner[shard] =
                    inner_sum(&pool, shard, &inner_max_worker[shard]);
              });
  for (int s = 0; s < 4; ++s) {
    int null_max_worker = 0;
    EXPECT_EQ(inner[s], inner_sum(nullptr, s, &null_max_worker))
        << "outer shard " << s;
    EXPECT_EQ(inner_max_worker[s], 0) << "outer shard " << s;
  }
}

TEST(ThreadPoolTest, MoreThreadsThanHardwareCoresStillCorrect) {
  // Determinism tests routinely over-subscribe (8 threads on any machine);
  // the pool must not care.
  ThreadPool pool(8);
  EXPECT_EQ(pool.num_threads(), 8);
  std::atomic<int64_t> total{0};
  ParallelFor(&pool, SplitRange(100, 100),
              [&](int /*shard*/, const IndexRange& range, int /*worker*/) {
                total.fetch_add(range.size());
              });
  EXPECT_EQ(total.load(), 100);
}

}  // namespace
}  // namespace maps
