// One read replica: its own Graph plus a stateless EvalCore, bootstrapped
// from a checkpoint (or a snapshot install from the primary, a Graph copy
// that shares the primary's sealed pages until either side writes them)
// and advanced by applying WAL-codec deltas in strict LSN order.
// After every applied batch the replica epoch-publishes its own immutable
// EngineSnapshot, so serving workers read it exactly like they read the
// primary's epoch — pin the published snapshot pointer, evaluate lock-free.
//
// Version faithfulness (the property the routed-read oracle relies on):
// ApplyDelta performs the same Graph mutations — hence the same version()
// bumps — as the primary's original operations, and both bootstrap paths
// anchor the counter to the primary's (a snapshot install copies the graph,
// counter included; a checkpoint restores the counter it was written
// with). A replica's published version V therefore denotes the *same*
// graph state as the primary's version V: bit-identical, not merely
// isomorphic. Lag is observable as (primary horizon − applied_lsn), and a
// response served here reports the version its relation was computed
// against, exactly like a primary read.
//
// Threading: Install/Apply are applier-thread-only (one mutator, the
// fleet's per-replica thread); snapshot()/version()/applied_lsn()/counters
// are safe from any thread.

#ifndef EXPFINDER_REPLICATION_REPLICA_H_
#define EXPFINDER_REPLICATION_REPLICA_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "src/engine/eval_core.h"
#include "src/graph/graph.h"
#include "src/replication/delta.h"
#include "src/util/result.h"

namespace expfinder {

/// \brief Anchor state a replica starts (or restarts) from: a graph whose
/// version counter matches the primary's numbering, plus the LSN of the
/// first delta NOT reflected in it.
struct ReplicaBootstrap {
  Graph graph;
  uint64_t next_lsn = 0;
};

/// Loads bootstrap state from the newest checkpoint in `dir` (the
/// primary's durability directory): graph (version counter restored) + its
/// applied_lsn as the tail cursor. Fails like ReadLatestCheckpoint
/// (NotFound: none at all; DataLoss: every one corrupt); callers then fall
/// back to a full snapshot install.
Result<ReplicaBootstrap> LoadReplicaBootstrap(const std::string& dir,
                                              FileOps* file_ops);

/// \brief One replica. See file comment for the threading contract.
class Replica {
 public:
  explicit Replica(size_t id, const EngineOptions& options = {})
      : id_(id), core_(options) {}

  size_t id() const { return id_; }

  /// Installs a full anchor state and publishes it as this replica's first
  /// snapshot. Also the lost-prefix recovery path (re-install).
  void Install(ReplicaBootstrap bootstrap);

  /// Applies a fetched run of deltas in LSN order, then publishes one
  /// successor snapshot. Records below the cursor are skipped (the
  /// checkpoint-overlap idempotence crash recovery also relies on); a
  /// record past the cursor is DataLoss — the feed skipped something, the
  /// caller must re-anchor. On a mid-batch apply error the replica
  /// republishes only the records before the failing one, which itself
  /// changed nothing (DurableGraph::ApplyRecord applies all or nothing).
  Status Apply(const DeltaBatch& batch);

  /// The replica's current published snapshot; null until the first
  /// Install. Safe from any thread.
  std::shared_ptr<const EngineSnapshot> snapshot() const {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    return snapshot_;
  }

  /// LSN of the next delta this replica expects (== records applied or
  /// anchored past). Safe from any thread.
  uint64_t next_lsn() const { return next_lsn_.load(std::memory_order_acquire); }

  /// Version of the published snapshot. Safe from any thread.
  uint64_t version() const { return version_.load(std::memory_order_acquire); }

  /// Evaluates against this replica's published snapshot via its own core
  /// (standalone use; the service routes reads through its own serving
  /// path instead). Thread-safe given an exclusive context.
  Result<MatchRelation> Evaluate(const Pattern& q, MatchSemantics semantics,
                                 const EvalOverrides& overrides, MatchContext* ctx,
                                 ServingPath* path) const;

  /// The live graph — applier-thread-only (tests compare serialized state
  /// after quiescing).
  const Graph& graph() const { return graph_; }

  // --- Counters (safe from any thread) ------------------------------------
  size_t deltas_applied() const {
    return deltas_applied_.load(std::memory_order_relaxed);
  }
  size_t snapshots_published() const {
    return snapshots_published_.load(std::memory_order_relaxed);
  }
  size_t installs() const { return installs_.load(std::memory_order_relaxed); }

 private:
  void Publish();

  const size_t id_;
  EvalCore core_;
  Graph graph_;  // applier-thread-only
  // Guarded by a plain mutex rather than std::atomic<shared_ptr>:
  // libstdc++'s _Sp_atomic releases its load spinlock with relaxed
  // ordering, so a reader's pointer read carries no happens-before edge to
  // the publisher's next store and TSan reports the pair as a race. A
  // pointer copy under an uncontended mutex is noise next to a query.
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const EngineSnapshot> snapshot_;
  std::atomic<uint64_t> next_lsn_{0};
  std::atomic<uint64_t> version_{0};
  std::atomic<size_t> deltas_applied_{0};
  std::atomic<size_t> snapshots_published_{0};
  std::atomic<size_t> installs_{0};
};

}  // namespace expfinder

#endif  // EXPFINDER_REPLICATION_REPLICA_H_
