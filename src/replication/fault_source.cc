#include "src/replication/fault_source.h"

#include <chrono>
#include <thread>
#include <utility>

namespace expfinder {

FaultyDeltaSource::FaultyDeltaSource(DeltaFaultPlan plan, DeltaSource* base)
    : base_(base), plan_(plan), rng_(plan.seed) {}

void FaultyDeltaSource::SetPlan(DeltaFaultPlan plan) {
  std::lock_guard<std::mutex> lock(mu_);
  plan_ = plan;
  rng_ = Rng(plan.seed);
}

FaultyDeltaSource::Counters FaultyDeltaSource::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

Result<DeltaBatch> FaultyDeltaSource::Fetch(uint64_t from_lsn, size_t max) {
  // Pre-call fate: faults that replace or delay the fetch itself.
  bool fail = false;
  bool lost = false;
  double stall_ms = 0.0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (plan_.any()) {
      if (rng_.NextBool(plan_.stall_prob)) {
        stall_ms = plan_.stall_ms;
        ++counters_.stalls;
      }
      if (rng_.NextBool(plan_.fetch_error_prob)) {
        fail = true;
        ++counters_.fetch_errors;
      } else if (rng_.NextBool(plan_.lost_prefix_prob)) {
        lost = true;
        ++counters_.forced_lost_prefixes;
      }
    }
  }
  if (stall_ms > 0.0) {
    // Real wall-clock delay: stalls exercise read deadlines and retries,
    // which run on real time.
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(stall_ms));
  }
  if (fail) {
    return Status::IOError("injected delta fetch error at lsn " +
                           std::to_string(from_lsn));
  }
  if (lost) {
    DeltaBatch gone;
    gone.lost_prefix = true;
    return gone;
  }

  auto fetched = base_->Fetch(from_lsn, max);
  if (!fetched.ok() || fetched->lost_prefix || fetched->deltas.empty()) {
    return fetched;
  }

  // Post-call fate: faults that mangle a successfully fetched batch.
  DeltaBatch batch = std::move(*fetched);
  std::lock_guard<std::mutex> lock(mu_);
  if (!plan_.any()) return batch;
  if (batch.deltas.size() > 1 && rng_.NextBool(plan_.truncate_prob)) {
    // Keep a non-empty proper prefix — a connection dropped mid-batch.
    const size_t keep =
        1 + static_cast<size_t>(rng_.NextBounded(batch.deltas.size() - 1));
    batch.deltas.resize(keep);
    ++counters_.truncated_batches;
  }
  if (rng_.NextBool(plan_.duplicate_prob)) {
    // At-least-once redelivery: the first frame arrives twice. The second
    // copy sits below the replica's advanced cursor and must be skipped.
    batch.deltas.insert(batch.deltas.begin(), batch.deltas.front());
    ++counters_.duplicated_frames;
  }
  if (rng_.NextBool(plan_.garble_prob)) {
    // Flip a bit in the record-kind header byte. This layer has no frame
    // checksum, so the flip must land where ApplyDelta provably detects it
    // (unknown record kind -> Corruption); an arbitrary payload flip could
    // parse cleanly and silently diverge from the oracle, which is a real
    // transport-integrity gap a network DeltaSource would close with a CRC,
    // not a behavior this decorator should manufacture.
    Delta& victim = batch.deltas[static_cast<size_t>(
        rng_.NextBounded(batch.deltas.size()))];
    if (!victim.payload.empty()) {
      victim.payload[0] = static_cast<char>(victim.payload[0] ^ 0x20);
      ++counters_.garbled_frames;
    }
  }
  return batch;
}

bool FaultyDeltaSource::AwaitRecords(uint64_t from_lsn, double timeout_ms) {
  return base_->AwaitRecords(from_lsn, timeout_ms);
}

uint64_t FaultyDeltaSource::end_lsn() const { return base_->end_lsn(); }

}  // namespace expfinder
