// The bounded, priority-aware admission queue between Submit and the
// serving workers. Admission control is the service's overload story: a
// push against a full queue is refused with kResourceExhausted *at submit
// time*, so callers see backpressure immediately instead of watching their
// requests rot in an unbounded backlog.
//
// Ordering is strict priority, FIFO within a priority lane. The queue holds
// requests only; deadline expiry and cancellation of queued entries are
// detected by the worker at pop time (the entry carries its admission-time
// stopwatch), which keeps push/pop O(1) and lock hold times tiny.

#ifndef EXPFINDER_SERVICE_ADMISSION_QUEUE_H_
#define EXPFINDER_SERVICE_ADMISSION_QUEUE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>

#include "src/service/service_types.h"
#include "src/util/timer.h"

namespace expfinder {

/// \brief One admitted request waiting for a serving worker.
struct PendingQuery {
  /// The request, its topic terms already compiled into `request.pattern`
  /// (Submit compiles them once).
  QueryRequest request;
  /// QueryCacheKey of the compiled pattern and the request's semantics.
  uint64_t key = 0;
  /// The ranking the request asks for, as its answer's memo keys it.
  RankedListKey rank_key;
  std::shared_ptr<TicketState> ticket;
  /// Started at Submit; measures queue wait and anchors the request's
  /// time budget (which covers queue time by design).
  Timer submitted;
};

/// \brief Thread-safe bounded priority queue of PendingQuery. All methods
/// are O(1) under one mutex.
class AdmissionQueue {
 public:
  /// `capacity` is the maximum number of queued (admitted, not yet popped)
  /// requests; 0 is clamped to 1 so the queue can always make progress.
  explicit AdmissionQueue(size_t capacity);

  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  /// Admits `pending`, or refuses with kResourceExhausted when the queue
  /// already holds capacity() entries. Never blocks.
  Status TryPush(std::unique_ptr<PendingQuery> pending);

  /// Pops the oldest entry of the highest non-empty priority lane, or
  /// nullptr when the queue is empty. Never blocks.
  std::unique_ptr<PendingQuery> TryPop();

  /// Entries currently queued.
  size_t size() const;
  size_t capacity() const { return capacity_; }

  /// Entries currently queued per priority lane, indexed by QueryPriority —
  /// the per-lane depth gauges ServiceStats exposes. One coherent snapshot
  /// (all lanes read under the same lock hold).
  std::array<size_t, kNumQueryPriorities> LaneDepths() const;

 private:
  const size_t capacity_;

  mutable std::mutex mu_;
  /// One FIFO lane per priority, indexed by QueryPriority; guarded by mu_.
  std::array<std::deque<std::unique_ptr<PendingQuery>>, kNumQueryPriorities> lanes_;
  size_t size_ = 0;  // guarded by mu_
};

}  // namespace expfinder

#endif  // EXPFINDER_SERVICE_ADMISSION_QUEUE_H_
