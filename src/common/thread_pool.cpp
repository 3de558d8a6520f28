#include "src/common/thread_pool.hpp"

#include <utility>

namespace wcdma::common {

ThreadPool::ThreadPool(std::size_t workers) {
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (workers_.empty()) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  {
    std::lock_guard lock(mutex_);
    fn_ = &fn;
    n_ = n;
    next_ = 0;
    ++generation_;
  }
  cv_start_.notify_all();
  drain();
  // Every item is claimed; wait only for the workers that joined, not for
  // ones that have not woken yet (they find fn_ cleared and sleep on).
  std::unique_lock lock(mutex_);
  cv_done_.wait(lock, [this] { return active_ == 0; });
  fn_ = nullptr;
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
}

void ThreadPool::drain() {
  for (;;) {
    const std::size_t i = next_++;
    if (i >= n_) return;
    try {
      (*fn_)(i);
    } catch (...) {
      std::lock_guard lock(mutex_);
      if (!error_) error_ = std::current_exception();
      next_ = n_;  // skip the unclaimed items
    }
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  std::unique_lock lock(mutex_);
  for (;;) {
    cv_start_.wait(lock, [&] { return stop_ || (fn_ && generation_ != seen); });
    if (stop_) return;
    seen = generation_;
    ++active_;
    lock.unlock();
    drain();
    lock.lock();
    if (--active_ == 0) cv_done_.notify_one();
  }
}

std::size_t default_thread_count() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : hc;
}

}  // namespace wcdma::common
