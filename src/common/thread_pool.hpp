// Fixed-size worker pool behind every parallel loop in the tree: the
// sweep's (scenario x replication) items and the simulator's intra-frame
// shards.  Determinism contract: callers index work items and seed each
// item's RNG from (master_seed, index), and no item writes another item's
// slot, so results are identical for any worker count, including 0.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace wcdma::common {

class ThreadPool {
 public:
  /// Starts `workers` persistent threads; 0 runs every loop inline.
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs `fn(i)` once for every i in [0, n) and returns when all calls
  /// have finished.  The calling thread claims items too, one index at a
  /// time like the workers; with no workers it runs them in index order.
  /// `fn` must be safe to call concurrently for distinct i.  If a call
  /// throws, unclaimed items are skipped and the first exception is
  /// rethrown here once every thread has left `fn`.  One loop at a time:
  /// the pool is driven by a single owning thread.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();
  /// Claims and runs items of the current loop until none are left.
  void drain();

  std::mutex mutex_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  // The current loop: set under mutex_ when it starts, and fn_ cleared
  // once it has ended.  Workers join it only while fn_ is set, so a worker
  // that wakes late never holds a finished loop's fn.
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t n_ = 0;
  std::atomic<std::size_t> next_{0};
  std::uint64_t generation_ = 0;
  std::size_t active_ = 0;    // workers inside the current loop
  std::exception_ptr error_;  // first exception of the current loop
  bool stop_ = false;
  std::vector<std::thread> workers_;  // last: the threads use every member
};

/// Default worker count: hardware_concurrency, at least 1.
std::size_t default_thread_count();

}  // namespace wcdma::common
