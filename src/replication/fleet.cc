#include "src/replication/fleet.h"

#include <algorithm>
#include <chrono>

#include "src/util/logging.h"

namespace expfinder {

namespace {

std::chrono::duration<double, std::milli> Millis(double ms) {
  return std::chrono::duration<double, std::milli>(ms);
}

}  // namespace

ReplicaFleet::ReplicaFleet(FleetOptions options, DeltaSource* source,
                           SnapshotInstallFn install)
    : options_(std::move(options)),
      source_(source),
      install_(std::move(install)),
      clock_(options_.health.clock != nullptr ? options_.health.clock
                                              : Clock::Real()) {
  EF_DCHECK(source_ != nullptr);
  EF_DCHECK(install_ || !options_.checkpoint_dir.empty())
      << "a fleet needs a snapshot install fn or a checkpoint directory";
  slots_.reserve(options_.num_replicas);
  for (size_t i = 0; i < options_.num_replicas; ++i) {
    slots_.push_back(std::make_unique<Slot>(i, options_.engine, options_.health));
  }
}

ReplicaFleet::~ReplicaFleet() { Stop(); }

void ReplicaFleet::Start() {
  std::lock_guard<std::mutex> lock(control_mu_);
  shutdown_.store(false, std::memory_order_release);
  for (auto& slot : slots_) {
    if (slot->applier.joinable()) continue;
    slot->run.store(true, std::memory_order_release);
    slot->applier = std::thread(&ReplicaFleet::ApplierLoop, this, slot.get());
  }
}

void ReplicaFleet::Stop() {
  std::lock_guard<std::mutex> lock(control_mu_);
  shutdown_.store(true, std::memory_order_release);
  for (auto& slot : slots_) slot->run.store(false, std::memory_order_release);
  NotifyWaiters();
  for (auto& slot : slots_) {
    if (slot->applier.joinable()) slot->applier.join();
    slot->alive.store(false, std::memory_order_release);
  }
}

void ReplicaFleet::StopReplica(size_t idx) {
  std::lock_guard<std::mutex> lock(control_mu_);
  if (idx >= slots_.size()) return;
  Slot* slot = slots_[idx].get();
  slot->run.store(false, std::memory_order_release);
  if (slot->applier.joinable()) slot->applier.join();
  slot->alive.store(false, std::memory_order_release);
  // Wake-on-death: a waiter whose wait can only be satisfied by this
  // replica (or by none at all, now) must re-evaluate instead of sleeping
  // out its deadline.
  NotifyWaiters();
}

void ReplicaFleet::RestartReplica(size_t idx) {
  std::lock_guard<std::mutex> lock(control_mu_);
  if (idx >= slots_.size() || shutdown_.load(std::memory_order_acquire)) return;
  Slot* slot = slots_[idx].get();
  if (slot->applier.joinable()) return;  // still running
  slot->run.store(true, std::memory_order_release);
  slot->applier = std::thread(&ReplicaFleet::ApplierLoop, this, slot);
}

bool ReplicaFleet::Recoverable() const {
  for (const auto& slot : slots_) {
    if (slot->run.load(std::memory_order_acquire)) return true;
  }
  return false;
}

bool ReplicaFleet::Bootstrap(Slot* slot) {
  while (slot->run.load(std::memory_order_acquire)) {
    if (!options_.checkpoint_dir.empty()) {
      auto bootstrap =
          LoadReplicaBootstrap(options_.checkpoint_dir, options_.file_ops);
      // A re-anchor never moves a replica backwards: a checkpoint older than
      // the state the replica holds would roll it back, and it would serve
      // the older version until it replayed the gap. The snapshot install
      // wins then, or, without one, the replica keeps its state.
      if (bootstrap.ok() && bootstrap->next_lsn >= slot->replica.next_lsn()) {
        slot->replica.Install(std::move(*bootstrap));
        return true;
      }
      if (bootstrap.ok() && !install_) return true;
    }
    if (install_) {
      slot->replica.Install(install_());
      return true;
    }
    // Nothing to anchor to yet (e.g. no checkpoint written so far): wait for
    // one to appear.
    source_->AwaitRecords(UINT64_MAX, options_.poll_interval_ms);
  }
  return false;
}

void ReplicaFleet::GoLive(Slot* slot) {
  slot->alive.store(true, std::memory_order_release);
  NotifyWaiters();
}

bool ReplicaFleet::HandleFailure(Slot* slot) {
  if (slot->health.RecordFailure()) return QuarantineAndRestart(slot);
  // Transient: keep the replica serving its last snapshot and retry after
  // a poll interval.
  clock_->SleepMillis(options_.poll_interval_ms);
  return slot->run.load(std::memory_order_acquire);
}

bool ReplicaFleet::QuarantineAndRestart(Slot* slot) {
  // Out of routing immediately; waiters re-evaluate (a wait pinned on this
  // replica may now be unsatisfiable until the auto-restart lands).
  slot->alive.store(false, std::memory_order_release);
  NotifyWaiters();
  // Wait out the watchdog's jittered backoff window, staying responsive to
  // Stop/StopReplica: sleep in poll-interval slices on the injected clock.
  while (slot->run.load(std::memory_order_acquire)) {
    const double remaining = slot->health.RestartDelayRemainingMs();
    if (remaining <= 0.0) break;
    clock_->SleepMillis(std::min(remaining, options_.poll_interval_ms));
  }
  if (!slot->run.load(std::memory_order_acquire)) return false;
  slot->health.OnAutoRestart();
  // Re-anchor rather than resume: a fresh bootstrap (checkpoint or snapshot
  // install) jumps past whatever poisoned the fetch/apply path, which a
  // plain retry at the same cursor would chew on forever.
  if (!Bootstrap(slot)) return false;
  GoLive(slot);
  return true;
}

void ReplicaFleet::ApplierLoop(Slot* slot) {
  if (!Bootstrap(slot)) return;
  GoLive(slot);
  while (slot->run.load(std::memory_order_acquire)) {
    const uint64_t cursor = slot->replica.next_lsn();
    auto fetched = source_->Fetch(cursor, options_.fetch_batch);
    if (!fetched.ok()) {
      if (!HandleFailure(slot)) return;
      continue;
    }
    if (fetched->lost_prefix) {
      slot->rebootstraps.fetch_add(1, std::memory_order_relaxed);
      if (!Bootstrap(slot)) return;
      NotifyWaiters();
      continue;
    }
    if (fetched->deltas.empty()) {
      // Cleanly caught up: the transport round-tripped, which ends any
      // consecutive-failure streak.
      slot->health.RecordSuccess();
      source_->AwaitRecords(cursor, options_.poll_interval_ms);
      continue;
    }
    Status st = slot->replica.Apply(*fetched);
    if (slot->replica.next_lsn() > cursor) NotifyWaiters();
    if (st.IsDataLoss()) {
      // The feed (or this replica's cursor) skipped records: re-anchor.
      slot->rebootstraps.fetch_add(1, std::memory_order_relaxed);
      if (!Bootstrap(slot)) return;
      NotifyWaiters();
      continue;
    }
    if (!st.ok()) {
      if (!HandleFailure(slot)) return;
      continue;
    }
    slot->health.RecordSuccess();
    // Runaway lag: the replica is healthy but falling behind; quarantine
    // for a catch-up re-anchor at the current horizon instead of replaying
    // the whole backlog record by record.
    const uint64_t horizon = source_->end_lsn();
    const uint64_t next = slot->replica.next_lsn();
    const uint64_t lag = horizon > next ? horizon - next : 0;
    if (slot->health.RecordLag(lag)) {
      if (!QuarantineAndRestart(slot)) return;
    }
  }
}

std::shared_ptr<const EngineSnapshot> ReplicaFleet::TryAcquire(uint64_t min_version,
                                                               size_t* replica_idx) {
  const size_t n = slots_.size();
  if (n == 0) return nullptr;
  if (options_.routing == ReadRouting::kLeastLagged) {
    std::shared_ptr<const EngineSnapshot> best;
    size_t best_idx = 0;
    for (size_t i = 0; i < n; ++i) {
      if (!slots_[i]->alive.load(std::memory_order_acquire)) continue;
      auto snap = slots_[i]->replica.snapshot();
      if (!snap || snap->version < min_version) continue;
      if (!best || snap->version > best->version) {
        best = std::move(snap);
        best_idx = i;
      }
    }
    if (!best) return nullptr;
    slots_[best_idx]->routed_reads.fetch_add(1, std::memory_order_relaxed);
    if (replica_idx) *replica_idx = best_idx;
    return best;
  }
  const size_t start = rr_.fetch_add(1, std::memory_order_relaxed);
  for (size_t k = 0; k < n; ++k) {
    const size_t i = (start + k) % n;
    if (!slots_[i]->alive.load(std::memory_order_acquire)) continue;
    auto snap = slots_[i]->replica.snapshot();
    if (!snap || snap->version < min_version) continue;
    slots_[i]->routed_reads.fetch_add(1, std::memory_order_relaxed);
    if (replica_idx) *replica_idx = i;
    return snap;
  }
  return nullptr;
}

std::shared_ptr<const EngineSnapshot> ReplicaFleet::Acquire(
    uint64_t min_version, double deadline_ms, size_t* replica_idx,
    AcquireOutcome* outcome) {
  auto report = [outcome](AcquireOutcome o) {
    if (outcome != nullptr) *outcome = o;
  };
  auto snap = TryAcquire(min_version, replica_idx);
  if (snap != nullptr) {
    report(AcquireOutcome::kOk);
    return snap;
  }
  // Fail fast when waiting cannot help: the fleet is shut down or every
  // applier was operator-stopped — only intervention revives it, so burning
  // the caller's deadline would just delay its fallback.
  if (shutdown_.load(std::memory_order_acquire) || !Recoverable()) {
    report(AcquireOutcome::kUnavailable);
    return nullptr;
  }
  if (min_version == 0 || deadline_ms <= 0.0) {
    report(AcquireOutcome::kTimeout);
    return nullptr;
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                            Millis(deadline_ms));
  bool unavailable = false;
  std::unique_lock<std::mutex> lock(wait_mu_);
  wait_cv_.wait_until(lock, deadline, [&] {
    if (shutdown_.load(std::memory_order_acquire) || !Recoverable()) {
      unavailable = true;
      return true;
    }
    snap = TryAcquire(min_version, replica_idx);
    return snap != nullptr;
  });
  report(snap != nullptr ? AcquireOutcome::kOk
         : unavailable   ? AcquireOutcome::kUnavailable
                         : AcquireOutcome::kTimeout);
  return snap;
}

void ReplicaFleet::NotifyWaiters() {
  // Take wait_mu_ briefly so a waiter between its predicate check and its
  // block cannot miss the wakeup.
  { std::lock_guard<std::mutex> lock(wait_mu_); }
  wait_cv_.notify_all();
}

std::vector<ReplicaStatus> ReplicaFleet::Replicas() const {
  const uint64_t horizon = source_->end_lsn();
  std::vector<ReplicaStatus> out;
  out.reserve(slots_.size());
  for (const auto& slot : slots_) {
    ReplicaStatus rs;
    rs.id = slot->replica.id();
    rs.alive = slot->alive.load(std::memory_order_acquire);
    rs.quarantined = slot->health.quarantined();
    rs.next_lsn = slot->replica.next_lsn();
    rs.version = slot->replica.version();
    rs.lag = horizon > rs.next_lsn ? horizon - rs.next_lsn : 0;
    rs.deltas_applied = slot->replica.deltas_applied();
    rs.routed_reads = slot->routed_reads.load(std::memory_order_relaxed);
    rs.installs = slot->replica.installs();
    rs.rebootstraps = slot->rebootstraps.load(std::memory_order_relaxed);
    rs.quarantines = slot->health.quarantines();
    rs.auto_restarts = slot->health.auto_restarts();
    out.push_back(rs);
  }
  return out;
}

}  // namespace expfinder
