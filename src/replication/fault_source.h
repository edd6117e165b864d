// Fault-injecting DeltaSource decorator (PR 10) — the replication-path
// sibling of storage's FaultyFileOps: wraps any real transport and injects
// the failure modes a network delta feed exhibits, deterministically from a
// seed, so the fleet's recovery paths (watchdog quarantine, re-anchoring,
// idempotent re-apply) are proven by tests instead of assumed.
//
// Fault model, per Fetch (each drawn independently from the seeded stream):
//   * fetch error   — the call fails with IOError; the applier's retry /
//                     consecutive-failure accounting path.
//   * stall         — the call succeeds but only after a delay; exercises
//                     read deadlines, retries, and lag-driven quarantine.
//   * truncation    — only a prefix of the batch is delivered (a connection
//                     dropped mid-stream); harmless by construction, the
//                     next fetch resumes at the cursor.
//   * duplication   — the first frame is delivered twice (an at-least-once
//                     transport redelivering); Replica::Apply's
//                     below-cursor skip must absorb it.
//   * garbling      — one payload byte is flipped; Apply fails with
//                     Corruption, the replica republishes only the clean
//                     prefix, and a clean refetch (or a re-anchor, when the
//                     garbling persists) must converge to the oracle state.
//   * forced lost prefix — the source claims the cursor fell below its
//                     horizon; the full re-anchor (checkpoint / snapshot
//                     install) path.
//
// Thread-safe like any DeltaSource (a single Rng guarded by a mutex keeps
// the draw sequence deterministic per seed even under concurrent fetchers —
// which replica sees which fault then depends on scheduling, so tests
// assert convergence and oracle equality, not per-replica fault placement).
// SetPlan() swaps the plan at runtime — chaos tests disarm the faults at
// the end of a drill and assert the fleet converges.

#ifndef EXPFINDER_REPLICATION_FAULT_SOURCE_H_
#define EXPFINDER_REPLICATION_FAULT_SOURCE_H_

#include <cstddef>
#include <cstdint>
#include <mutex>

#include "src/replication/delta.h"
#include "src/util/random.h"

namespace expfinder {

/// \brief Probability-per-fetch fault plan. All-zero (the default) injects
/// nothing — the decorator is then a transparent passthrough.
struct DeltaFaultPlan {
  double fetch_error_prob = 0.0;
  double stall_prob = 0.0;
  /// Delay of one injected stall, in wall milliseconds.
  double stall_ms = 5.0;
  double truncate_prob = 0.0;
  double duplicate_prob = 0.0;
  double garble_prob = 0.0;
  double lost_prefix_prob = 0.0;
  /// Seed of the deterministic fault stream.
  uint64_t seed = 1;

  bool any() const {
    return fetch_error_prob > 0.0 || stall_prob > 0.0 || truncate_prob > 0.0 ||
           duplicate_prob > 0.0 || garble_prob > 0.0 || lost_prefix_prob > 0.0;
  }
};

/// \brief DeltaSource decorator applying a DeltaFaultPlan to every Fetch.
/// `base` must outlive this object.
class FaultyDeltaSource : public DeltaSource {
 public:
  /// Injected-fault counters (cumulative; for test assertions).
  struct Counters {
    size_t fetch_errors = 0;
    size_t stalls = 0;
    size_t truncated_batches = 0;
    size_t duplicated_frames = 0;
    size_t garbled_frames = 0;
    size_t forced_lost_prefixes = 0;
  };

  FaultyDeltaSource(DeltaFaultPlan plan, DeltaSource* base);

  Result<DeltaBatch> Fetch(uint64_t from_lsn, size_t max) override;
  bool AwaitRecords(uint64_t from_lsn, double timeout_ms) override;
  uint64_t end_lsn() const override;

  /// Replaces the fault plan (and restarts its draw stream from the new
  /// seed). SetPlan({}) disarms injection entirely.
  void SetPlan(DeltaFaultPlan plan);

  Counters counters() const;

 private:
  DeltaSource* const base_;

  mutable std::mutex mu_;
  DeltaFaultPlan plan_;  // guarded by mu_
  Rng rng_;              // guarded by mu_
  Counters counters_;    // guarded by mu_
};

}  // namespace expfinder

#endif  // EXPFINDER_REPLICATION_FAULT_SOURCE_H_
