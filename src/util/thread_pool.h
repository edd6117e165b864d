// A persistent task-queue executor with a deterministic fork-join facade.
//
// Two ways to hand it work:
//
//   * Submit(task): enqueue a fire-and-forget task; one of the pool's
//     background threads runs it. This is the executor surface the serving
//     layer drains its admission queue with.
//   * ParallelChunks(n, active, fn): partition [0, n) into `active`
//     contiguous chunks and run fn(chunk, begin, end) on each, blocking
//     until all chunks finish. Chunk 0 runs on the calling thread; the rest
//     are enqueued as ordinary tasks. Chunk boundaries depend only on
//     (n, active), so any caller that keeps per-chunk outputs and
//     concatenates them in chunk order gets results that are bit-for-bit
//     identical to a serial left-to-right pass — the determinism contract
//     the matchers rely on.
//
// Reentrancy: both entry points may be called from any thread, including
// from inside a running task. A thread blocked in ParallelChunks *helps*:
// while its own chunks are outstanding it pops and runs queued tasks
// (its own chunks or anyone else's), so nested and concurrent dispatches
// always make progress instead of deadlocking on a parked pool. (PR 3 had
// to serialize QueryBatch fan-outs behind a mutex because the old
// fork-join-only pool lacked exactly this.)
//
// Shutdown: the destructor drains the queue — every task already submitted
// runs before the workers exit.

#ifndef EXPFINDER_UTIL_THREAD_POOL_H_
#define EXPFINDER_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace expfinder {

/// \brief Task-queue executor. For fork-join dispatches `num_workers`
/// counts the calling thread, so a pool of size W spawns W-1 background
/// threads; Submit-only users who want W concurrent tasks should size the
/// pool W+1.
class ThreadPool {
 public:
  /// Creates a pool with `num_workers` total workers (spawns
  /// num_workers - 1 background threads; 0 is clamped to 1).
  explicit ThreadPool(size_t num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_workers() const { return num_workers_; }

  /// Enqueues a task for a background thread. Thread-safe and reentrant
  /// (tasks may Submit). A pool of size 1 has no background threads, so a
  /// submitted task only runs when a ParallelChunks waiter helps or the
  /// destructor drains — executor users want num_workers >= 2.
  void Submit(std::function<void()> task);

  /// Splits [0, n) into `active_workers` contiguous chunks and runs
  /// fn(chunk_index, chunk_begin, chunk_end) for each; blocks until every
  /// chunk completes. Chunk `i` is [n*i/a, n*(i+1)/a), so the partition is
  /// a pure function of (n, active_workers) — deterministic across runs and
  /// independent of the pool's total size. active_workers is clamped to
  /// [1, num_workers()]. Chunk 0 runs on the calling thread, which then
  /// helps run queued tasks until its own chunks are done — safe to call
  /// concurrently from many threads and from inside tasks.
  void ParallelChunks(size_t n, size_t active_workers,
                      const std::function<void(size_t, size_t, size_t)>& fn);
  void ParallelChunks(size_t n, const std::function<void(size_t, size_t, size_t)>& fn) {
    ParallelChunks(n, num_workers_, fn);
  }

  /// Resolves a requested thread count: 0 means hardware_concurrency
  /// (at least 1), read once per process, since each read costs a system
  /// call; anything else is taken literally.
  static size_t ResolveThreads(uint32_t requested);

 private:
  /// Completion tracker for one ParallelChunks dispatch; lives on the
  /// dispatching thread's stack for the duration of the call.
  struct Job {
    std::mutex mu;
    std::condition_variable cv;
    size_t remaining = 0;  // guarded by mu
  };

  void WorkerLoop();
  /// Pops one queued task and runs it. Returns false when the queue was
  /// empty.
  bool RunOneQueuedTask();

  static std::pair<size_t, size_t> ChunkBounds(size_t chunk, size_t n, size_t active) {
    return {n * chunk / active, n * (chunk + 1) / active};
  }

  const size_t num_workers_;
  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<std::function<void()>> tasks_;  // guarded by mu_
  bool stop_ = false;                        // guarded by mu_
};

}  // namespace expfinder

#endif  // EXPFINDER_UTIL_THREAD_POOL_H_
