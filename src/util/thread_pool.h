// Fixed-size worker pool plus deterministic parallel-for / parallel-reduce.
//
// Determinism policy (see DESIGN.md, "Parallel determinism"): work is split
// into a FIXED number of contiguous shards derived from the problem size
// only — never from the thread count — each shard computes its partial
// result in serial order, and partials are folded in ascending shard index.
// Because shard boundaries and per-shard evaluation order are independent of
// how shards land on workers, every result is bit-identical for any pool
// size (including 1), and argmax-style reductions break ties by the lowest
// index. Threads only decide WHEN a shard runs, never WHAT it computes.
//
// Per-thread scratch: shard callbacks receive the executing worker's index
// in [0, num_threads()), so callers keep one pre-sized workspace per worker
// (the PR 1 workspace-pooling contract) and shards reuse them without
// locking. Scratch contents must not affect results — they are cleared by
// the consumer before use, exactly like PossibleWorldsWorkspace.
//
// Nesting: a ParallelFor issued from a pool worker runs inline there
// (worker 0), so shards may nest calls on the same pool; each caller keeps
// its per-worker scratch on its own object (DESIGN.md §8, the nest rule).

#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace maps {

namespace obs {
class Counter;
class Gauge;
class Histogram;
class MetricsRegistry;
}  // namespace obs

/// \brief Contiguous index shard [begin, end) of a larger range.
struct IndexRange {
  int64_t begin = 0;
  int64_t end = 0;
  int64_t size() const { return end - begin; }
};

/// \brief Fixed pool of worker threads consuming a FIFO task queue.
///
/// The pool is reusable across invocations: ParallelFor/ParallelReduce leave
/// no residual state behind, so one pool can back many sweeps (the
/// experiment runner holds a single pool for its whole matrix, cells
/// included). ParallelFor/ParallelReduce are the only way onto the pool.
class ThreadPool {
 public:
  /// \param num_threads worker count; clamped to >= 1. The pool may hold
  /// more threads than hardware cores (useful for determinism tests).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Default worker count: MAPS_THREADS env var if set (> 0), otherwise
  /// std::thread::hardware_concurrency().
  static int DefaultThreadCount();

  /// Resolves "pool.*" telemetry from `registry` (no-op when null): a
  /// queue-depth gauge (current + high-water), a submitted-task counter,
  /// and a task execution-latency histogram — all wall-clock; scheduling
  /// is the one place the engine is deliberately non-deterministic. Call
  /// before the pool has work in flight.
  void AttachMetrics(obs::MetricsRegistry* registry);

 private:
  friend void ParallelFor(ThreadPool*, const std::vector<IndexRange>&,
                          const std::function<void(int, const IndexRange&,
                                                   int)>&);

  /// Enqueues one task; `fn` receives the executing worker's index.
  void Submit(std::function<void(int worker)> fn);
  void WorkerLoop(int worker);

  std::mutex mu_;
  std::condition_variable cv_;
  std::queue<std::function<void(int)>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
  obs::Gauge* m_queue_depth_ = nullptr;    // written under mu_
  obs::Counter* m_tasks_ = nullptr;        // wall-clock: depends on pooling
  obs::Histogram* m_task_run_ns_ = nullptr;
};

/// \brief Splits [0, n) into at most `max_shards` near-equal contiguous
/// ranges. Pure function of (n, max_shards): callers MUST derive
/// `max_shards` from the problem, not from the thread count, or results
/// stop being thread-count-independent.
std::vector<IndexRange> SplitRange(int64_t n, int64_t max_shards);

/// \brief Runs `fn(shard_index, range, worker)` for every shard on the pool
/// (inline when `pool` is null, single-threaded or single-shard, or when
/// called from a pool worker thread). Returns after all shards completed.
/// `fn` must not throw.
void ParallelFor(ThreadPool* pool, const std::vector<IndexRange>& shards,
                 const std::function<void(int shard, const IndexRange& range,
                                          int worker)>& fn);

/// \brief Deterministic map/reduce: `map(shard, range, worker)` produces one
/// partial per shard; partials are folded left-to-right in shard order with
/// `reduce(acc, partial)` starting from `init`. The reduction itself runs on
/// the calling thread, so it is sequential and ordered by construction.
template <typename T>
T ParallelReduce(ThreadPool* pool, const std::vector<IndexRange>& shards,
                 T init,
                 const std::function<T(int shard, const IndexRange& range,
                                       int worker)>& map,
                 const std::function<T(T acc, T partial)>& reduce) {
  std::vector<T> partials(shards.size(), init);
  ParallelFor(pool, shards,
              [&](int shard, const IndexRange& range, int worker) {
                partials[shard] = map(shard, range, worker);
              });
  T acc = init;
  for (size_t s = 0; s < partials.size(); ++s) {
    acc = reduce(std::move(acc), std::move(partials[s]));
  }
  return acc;
}

}  // namespace maps
