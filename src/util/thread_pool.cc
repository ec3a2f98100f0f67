#include "util/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <latch>

#include "obs/metrics.h"
#include "util/logging.h"

namespace maps {
namespace {

// Set on every pool worker thread (of any pool); see ParallelFor.
thread_local bool tls_pool_worker = false;

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  const int n = std::max(1, num_threads);
  workers_.reserve(n);
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::AttachMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) return;
  const auto wall = obs::Determinism::kWallClock;
  m_queue_depth_ = registry->GetGauge("pool.queue_depth", wall);
  m_tasks_ = registry->GetCounter("pool.tasks_submitted", wall);
  m_task_run_ns_ = registry->GetHistogram("pool.task_run_ns", wall);
}

void ThreadPool::Submit(std::function<void(int)> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    MAPS_CHECK(!stop_) << "Submit on a stopped ThreadPool";
    queue_.push(std::move(fn));
    if (m_queue_depth_ != nullptr) {
      m_queue_depth_->Set(static_cast<int64_t>(queue_.size()));
    }
  }
  if (m_tasks_ != nullptr) m_tasks_->Increment();
  cv_.notify_one();
}

void ThreadPool::WorkerLoop(int worker) {
  tls_pool_worker = true;
  while (true) {
    std::function<void(int)> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained
      task = std::move(queue_.front());
      queue_.pop();
      if (m_queue_depth_ != nullptr) {
        m_queue_depth_->Set(static_cast<int64_t>(queue_.size()));
      }
    }
    if (m_task_run_ns_ != nullptr) {
      const auto start = std::chrono::steady_clock::now();
      task(worker);
      m_task_run_ns_->Record(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start)
              .count());
    } else {
      task(worker);
    }
  }
}

int ThreadPool::DefaultThreadCount() {
  if (const char* env = std::getenv("MAPS_THREADS")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

std::vector<IndexRange> SplitRange(int64_t n, int64_t max_shards) {
  std::vector<IndexRange> shards;
  if (n <= 0) return shards;
  const int64_t count = std::max<int64_t>(1, std::min(n, max_shards));
  shards.reserve(count);
  // Near-equal contiguous ranges; the first (n % count) shards take one
  // extra element so sizes differ by at most 1.
  const int64_t base = n / count;
  const int64_t extra = n % count;
  int64_t begin = 0;
  for (int64_t s = 0; s < count; ++s) {
    const int64_t size = base + (s < extra ? 1 : 0);
    shards.push_back(IndexRange{begin, begin + size});
    begin += size;
  }
  return shards;
}

void ParallelFor(ThreadPool* pool, const std::vector<IndexRange>& shards,
                 const std::function<void(int shard, const IndexRange& range,
                                          int worker)>& fn) {
  if (shards.empty()) return;
  if (pool == nullptr || pool->num_threads() == 1 || shards.size() == 1 ||
      tls_pool_worker) {
    // Inline path: worker index 0, identical shard order. Keeping this path
    // byte-for-byte equivalent to the pooled one is what lets the serial
    // API be "parallel with one shard", and lets a pool worker's nested
    // call run here instead of waiting on the pool it is running on.
    for (size_t s = 0; s < shards.size(); ++s) {
      fn(static_cast<int>(s), shards[s], 0);
    }
    return;
  }
  std::latch latch(static_cast<std::ptrdiff_t>(shards.size()));
  for (size_t s = 0; s < shards.size(); ++s) {
    pool->Submit([&, s](int worker) {
      fn(static_cast<int>(s), shards[s], worker);
      latch.count_down();
    });
  }
  latch.wait();
}

}  // namespace maps
