#include "src/service/service_types.h"

#include <chrono>
#include <sstream>

namespace expfinder {

std::string_view QueryPriorityName(QueryPriority priority) {
  switch (priority) {
    case QueryPriority::kBackground: return "background";
    case QueryPriority::kNormal: return "normal";
    case QueryPriority::kInteractive: return "interactive";
  }
  return "unknown";
}

void CompleteTicket(const std::shared_ptr<TicketState>& state,
                    Result<QueryResponse> result) {
  std::function<void(const Result<QueryResponse>&)> callback;
  {
    std::lock_guard<std::mutex> lock(state->mu);
    EF_DCHECK(!state->done && !state->result) << "ticket completed twice";
    state->result.emplace(std::move(result));  // immutable from here on
    callback = std::move(state->callback);
    state->callback = nullptr;
  }
  // Callback first (outside the lock), and only then publish `done`: a
  // waiter in Wait()/Get() — even one woken spuriously — cannot observe a
  // completed ticket whose callback has not finished.
  if (callback) callback(*state->result);
  std::function<void(const Result<QueryResponse>&)> late_callback;
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->done = true;
    // An OnComplete that raced into the window above registered itself
    // while `done` was still false; it fires now, before waiters wake.
    late_callback = std::move(state->callback);
    state->callback = nullptr;
  }
  if (late_callback) late_callback(*state->result);
  state->cv.notify_all();
}

bool QueryTicket::done() const {
  EF_DCHECK(valid());
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->done;
}

void QueryTicket::Wait() const {
  EF_DCHECK(valid());
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [&] { return state_->done; });
}

std::optional<Result<QueryResponse>> QueryTicket::TryGet(double timeout_ms) const {
  EF_DCHECK(valid());
  std::unique_lock<std::mutex> lock(state_->mu);
  if (timeout_ms > 0.0) {
    state_->cv.wait_for(lock, std::chrono::duration<double, std::milli>(timeout_ms),
                        [&] { return state_->done; });
  }
  if (!state_->done) return std::nullopt;
  return *state_->result;
}

Result<QueryResponse> QueryTicket::Get() const {
  Wait();
  std::lock_guard<std::mutex> lock(state_->mu);
  return *state_->result;
}

bool QueryTicket::Cancel() {
  if (!valid()) return false;
  state_->cancelled.store(true, std::memory_order_release);
  std::lock_guard<std::mutex> lock(state_->mu);
  return !state_->done;
}

void QueryTicket::OnComplete(
    std::function<void(const Result<QueryResponse>&)> callback) {
  EF_DCHECK(valid());
  bool fire_inline = false;
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    EF_DCHECK(!state_->callback) << "at most one OnComplete per ticket";
    if (state_->done) {
      fire_inline = true;
    } else {
      state_->callback = std::move(callback);
    }
  }
  if (fire_inline) callback(*state_->result);
}

size_t QueueLatencyBucket(double queue_ms) {
  size_t bucket = 0;
  double upper = 1.0;  // bucket 0: < 1 ms
  while (bucket + 1 < kQueueLatencyBuckets && queue_ms >= upper) {
    ++bucket;
    upper *= 2.0;
  }
  return bucket;
}

std::string ServiceStats::ToString() const {
  std::ostringstream os;
  for (const ServiceCounter& counter : kServiceCounters) {
    os << counter.key << "=" << this->*counter.field << " ";
  }
  os << "queued=" << queued << " queued_by_lane=[";
  for (size_t lane = 0; lane < queued_by_priority.size(); ++lane) {
    if (lane > 0) os << " ";
    os << QueryPriorityName(static_cast<QueryPriority>(lane)) << ":"
       << queued_by_priority[lane];
  }
  os << "]";
  if (!replicas.empty()) {
    os << " replicas=[";
    for (size_t i = 0; i < replicas.size(); ++i) {
      const ReplicaStatus& r = replicas[i];
      if (i > 0) os << " ";
      os << "r" << r.id << ":"
         << (r.alive ? "up" : r.quarantined ? "quarantined" : "down") << ",v"
         << r.version << ",lag" << r.lag << ",reads" << r.routed_reads;
    }
    os << "]";
  }
  os << " queue_latency_ms=[";
  for (size_t i = 0; i < queue_latency_histogram.size(); ++i) {
    if (i > 0) os << " ";
    os << queue_latency_histogram[i];
  }
  os << "]";
  return os.str();
}

}  // namespace expfinder
