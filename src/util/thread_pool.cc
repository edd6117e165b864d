#include "src/util/thread_pool.h"

#include <algorithm>

namespace expfinder {

ThreadPool::ThreadPool(size_t num_workers) : num_workers_(std::max<size_t>(1, num_workers)) {
  threads_.reserve(num_workers_ - 1);
  for (size_t i = 1; i < num_workers_; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
  // A pool without background threads still honors the drain guarantee.
  while (RunOneQueuedTask()) {
  }
}

size_t ThreadPool::ResolveThreads(uint32_t requested) {
  if (requested != 0) return requested;
  static const size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return hw;
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

bool ThreadPool::RunOneQueuedTask() {
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (tasks_.empty()) return false;
    task = std::move(tasks_.front());
    tasks_.pop_front();
  }
  task();
  return true;
}

void ThreadPool::ParallelChunks(size_t n, size_t active_workers,
                                const std::function<void(size_t, size_t, size_t)>& fn) {
  if (n == 0) return;
  active_workers = std::clamp<size_t>(active_workers, 1, num_workers_);
  if (active_workers == 1) {
    fn(0, 0, n);
    return;
  }
  Job job;
  job.remaining = active_workers - 1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t chunk = 1; chunk < active_workers; ++chunk) {
      auto [begin, end] = ChunkBounds(chunk, n, active_workers);
      // fn and job outlive the task: ParallelChunks does not return until
      // job.remaining hits zero, i.e. until every chunk task has finished.
      tasks_.push_back([&fn, &job, chunk, begin = begin, end = end] {
        if (begin < end) fn(chunk, begin, end);
        {
          std::lock_guard<std::mutex> jlock(job.mu);
          --job.remaining;
          if (job.remaining == 0) job.cv.notify_one();
        }
      });
    }
  }
  work_cv_.notify_all();
  auto [begin, end] = ChunkBounds(0, n, active_workers);
  if (begin < end) fn(0, begin, end);
  // Help-while-waiting: run queued tasks (our chunks or anyone else's)
  // until our job completes. Once the queue is empty every chunk of this
  // job is either done or running on another thread, and that thread — by
  // the same rule, recursively — makes progress, so sleeping on job.cv
  // cannot deadlock.
  for (;;) {
    {
      std::lock_guard<std::mutex> jlock(job.mu);
      if (job.remaining == 0) return;
    }
    if (RunOneQueuedTask()) continue;
    std::unique_lock<std::mutex> jlock(job.mu);
    job.cv.wait(jlock, [&] { return job.remaining == 0; });
    return;
  }
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stop_ || !tasks_.empty(); });
    // Drain-on-stop: every task submitted before destruction runs.
    if (tasks_.empty()) return;  // only reachable when stop_
    auto task = std::move(tasks_.front());
    tasks_.pop_front();
    lock.unlock();
    task();
    lock.lock();
  }
}

}  // namespace expfinder
