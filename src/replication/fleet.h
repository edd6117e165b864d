// ReplicaFleet: N replicas behind one DeltaSource, each advanced by its own
// applier thread, plus the read-routing front the service serves from.
//
// Lifecycle per replica (the applier loop):
//
//   bootstrap: newest checkpoint + delta tail when a checkpoint directory
//              is configured (the cheap path — no primary coordination),
//              else a full snapshot install through the caller-supplied
//              install function (which copies the primary's published
//              graph). Retries until one succeeds.
//   steady state: Fetch from the source at the replica's cursor, Apply,
//              publish, wake routed readers; block in AwaitRecords when
//              caught up.
//   re-anchor: a lost prefix (WAL truncated / window evicted below the
//              cursor) or an apply-side DataLoss re-runs bootstrap. Counted
//              per replica — a nonzero rebootstrap count is the signal that
//              a replica fell off the tail. A re-anchor never moves a
//              replica backwards: a checkpoint older than its cursor is
//              skipped for the snapshot install (or, without an install
//              function, the replica keeps its state).
//   self-healing (PR 10): every fetch/apply outcome feeds a per-replica
//              ReplicaHealth watchdog. Isolated failures get a brief retry
//              pause (the replica keeps serving its last snapshot); N
//              consecutive failures or runaway lag quarantine the replica —
//              pulled from routing, waiters woken — and after a capped
//              exponential backoff (seeded jitter, injectable clock) the
//              applier auto-restarts by re-anchoring, which recovers even
//              from poisoned records a bare retry would chew on forever.
//
// Read routing (Acquire): picks an alive replica whose published snapshot
// satisfies `min_version` — round-robin spreads load evenly, least-lagged
// always serves the freshest replica. `min_version` is the bounded-staleness
// / read-your-writes knob: 0 never waits (any alive replica qualifies;
// nullptr when none is up), > 0 blocks until some replica reaches that
// version or the deadline passes. Acquire fails fast — waiters are woken on
// replica death as well as on publish, and when no replica can possibly
// recover (fleet shutdown, or every applier operator-stopped) it returns
// immediately with AcquireOutcome::kUnavailable instead of burning the
// caller's deadline. The caller owns fallback policy (serve from the
// primary, retry, or fail the read) — Acquire just reports nullptr + why.
//
// StopReplica/RestartReplica kill and revive one applier without touching
// the rest of the fleet — the crash/catch-up path the divergence sweep
// exercises, and the admin hook a real deployment would expose.

#ifndef EXPFINDER_REPLICATION_FLEET_H_
#define EXPFINDER_REPLICATION_FLEET_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/engine/eval_core.h"
#include "src/replication/delta.h"
#include "src/replication/health.h"
#include "src/replication/replica.h"

namespace expfinder {

/// \brief How Acquire picks among eligible replicas.
enum class ReadRouting {
  /// Cycle through alive, version-satisfying replicas — even load spread.
  kRoundRobin,
  /// Always the highest published version (ties to the lowest id) —
  /// freshest answers, uneven load.
  kLeastLagged,
};

/// \brief Why an Acquire returned nullptr (kOk iff it returned a snapshot).
enum class AcquireOutcome {
  kOk,
  /// No replica satisfied the read within the deadline, but the fleet can
  /// still recover (appliers running, or quarantined pending auto-restart):
  /// a retry may succeed.
  kTimeout,
  /// The fleet cannot serve this read and will not without intervention:
  /// shut down, or every applier operator-stopped. Returned immediately —
  /// the deadline is not waited out.
  kUnavailable,
};

/// \brief Fleet configuration.
struct FleetOptions {
  size_t num_replicas = 2;
  ReadRouting routing = ReadRouting::kRoundRobin;
  /// Max deltas per Fetch.
  size_t fetch_batch = 256;
  /// Applier wait between polls when caught up (also the bound on how long
  /// Stop/StopReplica may block joining an idle applier).
  double poll_interval_ms = 20.0;
  /// The primary's checkpoint directory; when set, bootstrap prefers
  /// checkpoint + delta tail over a full snapshot install.
  std::string checkpoint_dir;
  /// nullptr = the real filesystem (checkpoint reads).
  FileOps* file_ops = nullptr;
  /// Per-replica evaluation config (each replica owns an EvalCore).
  EngineOptions engine;
  /// Watchdog policy: quarantine thresholds and auto-restart backoff (one
  /// config, one ReplicaHealth instance per replica).
  ReplicaHealthOptions health;
};

/// Produces a full-snapshot bootstrap (a copy of the primary's published
/// graph + the LSN of the first record not in it). Must be callable from
/// applier threads at any point in the fleet's life.
using SnapshotInstallFn = std::function<ReplicaBootstrap()>;

/// \brief Point-in-time observability for one replica (ServiceStats embeds
/// these, and sums its fleet totals from them; see kServiceCounters).
struct ReplicaStatus {
  size_t id = 0;
  bool alive = false;
  /// Pulled from routing by the watchdog, waiting out backoff before its
  /// auto-restart (mutually exclusive with alive).
  bool quarantined = false;
  uint64_t next_lsn = 0;
  uint64_t version = 0;
  /// Source horizon minus applied cursor, in records.
  uint64_t lag = 0;
  size_t deltas_applied = 0;
  size_t routed_reads = 0;
  size_t installs = 0;
  size_t rebootstraps = 0;
  size_t quarantines = 0;
  size_t auto_restarts = 0;
};

/// \brief The fleet. Thread-safe: Acquire/Replicas from any thread;
/// Start/Stop/StopReplica/RestartReplica serialize among themselves.
class ReplicaFleet {
 public:
  /// `source` must outlive the fleet. `install` may be empty only when a
  /// checkpoint directory is configured.
  ReplicaFleet(FleetOptions options, DeltaSource* source,
               SnapshotInstallFn install);
  ~ReplicaFleet();

  ReplicaFleet(const ReplicaFleet&) = delete;
  ReplicaFleet& operator=(const ReplicaFleet&) = delete;

  /// Spawns every applier. Idempotent.
  void Start();

  /// Stops every applier and joins. Idempotent; the destructor calls it.
  void Stop();

  /// Routes one read: an alive replica's snapshot with version >=
  /// `min_version`, or nullptr when none satisfies it within
  /// `deadline_ms` (0 deadline or 0 min_version = no waiting; an
  /// unrecoverable fleet never waits — see AcquireOutcome). On success
  /// `*replica_idx` (optional) receives the chosen replica and its
  /// routed-read counter is bumped, once per successful call (the service
  /// reports their sum as ServiceStats::routed_reads); `*outcome`
  /// (optional) reports why a nullptr came back. The configured ReadRouting
  /// picks among eligible replicas; either policy scans every replica, so
  /// whether a snapshot comes back does not depend on it.
  std::shared_ptr<const EngineSnapshot> Acquire(uint64_t min_version,
                                                double deadline_ms,
                                                size_t* replica_idx,
                                                AcquireOutcome* outcome = nullptr);

  /// Kills one applier (joins it) and marks the replica dead for routing.
  /// The crash half of the catch-up drill. Wakes Acquire waiters — a wait
  /// that can no longer succeed fails fast instead of timing out.
  void StopReplica(size_t idx);

  /// Revives a stopped applier; it re-bootstraps (checkpoint + tail when
  /// available) before going live again. No-op on a running replica.
  void RestartReplica(size_t idx);

  /// True while at least one applier is running or pending auto-restart —
  /// i.e. an Acquire wait could still be satisfied without operator action.
  bool Recoverable() const;

  size_t num_replicas() const { return slots_.size(); }
  const FleetOptions& options() const { return options_; }

  /// Direct access to one replica, for tests and diagnostics. The atomic
  /// accessors (snapshot/version/next_lsn/counters) are safe any time;
  /// Replica::graph() only after this replica's applier was stopped
  /// (StopReplica joins it).
  const Replica& replica(size_t idx) const { return slots_[idx]->replica; }

  /// This replica's watchdog state, for tests and diagnostics.
  const ReplicaHealth& health(size_t idx) const { return slots_[idx]->health; }

  /// Snapshot of every replica's state, in id order.
  std::vector<ReplicaStatus> Replicas() const;

 private:
  struct Slot {
    Slot(size_t id, const EngineOptions& engine,
         const ReplicaHealthOptions& health_options)
        : replica(id, engine), health(id, health_options) {}
    Replica replica;
    ReplicaHealth health;
    std::thread applier;               // guarded by control_mu_
    std::atomic<bool> run{false};      // applier keep-going flag
    std::atomic<bool> alive{false};    // eligible for routing
    std::atomic<size_t> routed_reads{0};
    std::atomic<size_t> rebootstraps{0};
  };

  void ApplierLoop(Slot* slot);
  /// Bootstraps (or re-anchors) one replica; false only when stopped first.
  bool Bootstrap(Slot* slot);
  /// Marks the replica routable and wakes waiters.
  void GoLive(Slot* slot);
  /// One failed fetch/apply round: transient -> brief pause; threshold
  /// crossed -> quarantine + backoff + re-anchor. False when stopped.
  bool HandleFailure(Slot* slot);
  /// Pulls the replica from routing, waits out the watchdog backoff on the
  /// injected clock (responsive to run), then re-anchors. False when
  /// stopped during the wait.
  bool QuarantineAndRestart(Slot* slot);
  /// Lock-free routing probe; nullptr when nothing satisfies min_version.
  std::shared_ptr<const EngineSnapshot> TryAcquire(uint64_t min_version,
                                                   size_t* replica_idx);
  void NotifyWaiters();

  const FleetOptions options_;
  DeltaSource* const source_;
  const SnapshotInstallFn install_;
  Clock* const clock_;  // options_.health.clock resolved (never null)

  std::vector<std::unique_ptr<Slot>> slots_;
  std::atomic<bool> shutdown_{false};
  std::atomic<size_t> rr_{0};  // round-robin cursor

  std::mutex control_mu_;  // Start/Stop/StopReplica/RestartReplica
  std::mutex wait_mu_;     // Acquire waiters (paired with wait_cv_)
  std::condition_variable wait_cv_;
};

}  // namespace expfinder

#endif  // EXPFINDER_REPLICATION_FLEET_H_
