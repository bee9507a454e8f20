#include "common/thread_pool.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace orv {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  // The calling thread participates, so spawn threads-1 workers.
  for (std::size_t i = 1; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_generation = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      start_cv_.wait(lock, [&] {
        return stop_ || generation_ != seen_generation;
      });
      if (stop_) return;
      seen_generation = generation_;
      ++workers_active_;
    }
    run_indices();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --workers_active_;
      if (workers_active_ == 0 && completed_ == next_index_) {
        done_cv_.notify_all();
      }
    }
  }
}

void ThreadPool::run_indices() {
  while (true) {
    std::size_t begin, end;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (next_index_ >= job_size_ || first_exception_) return;
      begin = next_index_;
      end = std::min(job_size_, begin + grain_);
      next_index_ = end;
    }
    // A mid-chunk exception abandons the chunk's remaining indices, but
    // they were dispatched, so they still count toward completed_ — the
    // done condition stays completed_ == next_index_.
    try {
      for (std::size_t i = begin; i < end; ++i) (*job_fn_)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!first_exception_) first_exception_ = std::current_exception();
      completed_ += end - begin;
      continue;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    completed_ += end - begin;
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn,
                              std::size_t grain) {
  if (n == 0) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ORV_CHECK(job_fn_ == nullptr, "parallel_for is not reentrant");
    job_size_ = n;
    grain_ = grain != 0 ? grain
                        : std::max<std::size_t>(1, n / (8 * num_threads()));
    job_fn_ = &fn;
    next_index_ = 0;
    completed_ = 0;
    first_exception_ = nullptr;
    ++generation_;
  }
  start_cv_.notify_all();
  run_indices();  // the caller participates
  {
    std::unique_lock<std::mutex> lock(mutex_);
    // Done when no index is in flight and no more will be dispatched
    // (all consumed, or dispatch stopped by an exception).
    done_cv_.wait(lock, [&] {
      return workers_active_ == 0 && completed_ == next_index_ &&
             (next_index_ >= job_size_ || first_exception_);
    });
    // Retire the job: an aborted job leaves next_index_ < job_size_, and a
    // worker that wakes late for this generation would otherwise pass
    // run_indices()'s dispatch check once first_exception_ is cleared and
    // call through the null job_fn_.
    next_index_ = job_size_;
    job_fn_ = nullptr;
    if (first_exception_) {
      auto ex = first_exception_;
      first_exception_ = nullptr;
      lock.unlock();
      std::rethrow_exception(ex);
    }
  }
}

}  // namespace orv
