#include "src/replication/delta.h"

#include <algorithm>
#include <chrono>

#include "src/storage/durable_graph.h"
#include "src/util/logging.h"

namespace expfinder {

Status ApplyDelta(Graph* g, const Delta& delta) {
  return DurableGraph::ApplyRecord(g, delta.payload);
}

void InProcessDeltaSource::Ship(uint64_t lsn, std::string payload) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    EF_DCHECK(lsn == end_lsn_) << "non-contiguous Ship: lsn " << lsn
                               << ", expected " << end_lsn_;
    window_.push_back({lsn, std::move(payload)});
    end_lsn_ = lsn + 1;
    while (window_.size() > options_.window_records) window_.pop_front();
    window_start_ = window_.empty() ? end_lsn_ : window_.front().lsn;
  }
  cv_.notify_all();
}

void InProcessDeltaSource::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

Result<DeltaBatch> InProcessDeltaSource::Fetch(uint64_t from_lsn, size_t max) {
  DeltaBatch batch;
  uint64_t window_start;
  {
    std::lock_guard<std::mutex> lock(mu_);
    window_start = window_.empty() ? end_lsn_ : window_start_;
    if (from_lsn >= window_start) {
      // Entirely servable from the live window.
      for (const Delta& d : window_) {
        if (d.lsn < from_lsn) continue;
        if (batch.deltas.size() >= max) break;
        batch.deltas.push_back(d);
      }
      return batch;
    }
  }

  // Below the window: catch up from the WAL tail (outside mu_ — file reads
  // must never stall the producer), then top up from the window when the
  // tail reached it.
  if (options_.wal_dir.empty()) {
    batch.lost_prefix = true;  // evicted and nowhere else to read from
    return batch;
  }
  auto tail = Wal::TailFrom(options_.wal_dir, options_.file_ops, from_lsn, max);
  if (!tail.ok()) return tail.status();
  batch.deltas = std::move(tail->records);
  batch.lost_prefix = tail->lost_prefix;
  if (batch.lost_prefix || batch.deltas.empty()) return batch;
  if (batch.deltas.size() >= max) return batch;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Delta& d : window_) {
    if (batch.deltas.size() >= max) break;
    const uint64_t next = batch.deltas.back().lsn + 1;
    if (d.lsn < next) continue;
    if (d.lsn > next) break;  // window advanced past the tail: stay contiguous
    batch.deltas.push_back(d);
  }
  return batch;
}

bool InProcessDeltaSource::AwaitRecords(uint64_t from_lsn, double timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  return cv_.wait_for(lock,
                      std::chrono::duration<double, std::milli>(timeout_ms),
                      [&] { return closed_ || end_lsn_ > from_lsn; }) &&
         end_lsn_ > from_lsn;
}

uint64_t InProcessDeltaSource::end_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return end_lsn_;
}

}  // namespace expfinder
