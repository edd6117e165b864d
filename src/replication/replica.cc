#include "src/replication/replica.h"

#include "src/storage/checkpoint.h"
#include "src/util/logging.h"

namespace expfinder {

Result<ReplicaBootstrap> LoadReplicaBootstrap(const std::string& dir,
                                              FileOps* file_ops) {
  CheckpointOptions options;
  options.dir = dir;
  options.file_ops = file_ops;
  auto recovered = ReadLatestCheckpoint(options);
  if (!recovered.ok()) return recovered.status();
  ReplicaBootstrap out;
  out.graph = std::move(recovered->graph);
  out.next_lsn = recovered->applied_lsn;
  return out;
}

void Replica::Install(ReplicaBootstrap bootstrap) {
  graph_ = std::move(bootstrap.graph);
  next_lsn_.store(bootstrap.next_lsn, std::memory_order_release);
  installs_.fetch_add(1, std::memory_order_relaxed);
  Publish();
}

Status Replica::Apply(const DeltaBatch& batch) {
  uint64_t cursor = next_lsn_.load(std::memory_order_relaxed);
  size_t applied = 0;
  Status st = Status::OK();
  for (const Delta& delta : batch.deltas) {
    if (delta.lsn < cursor) continue;  // overlap with the anchor: idempotent
    if (delta.lsn > cursor) {
      st = Status::DataLoss("delta gap: expected lsn " +
                            std::to_string(cursor) + ", got " +
                            std::to_string(delta.lsn));
      break;
    }
    st = ApplyDelta(&graph_, delta);
    if (!st.ok()) break;
    cursor = delta.lsn + 1;
    ++applied;
  }
  if (applied > 0) {
    // Publish what was fully applied even on a mid-batch failure — the
    // prefix is a consistent state; the error only governs what the applier
    // does next (re-anchor).
    next_lsn_.store(cursor, std::memory_order_release);
    deltas_applied_.fetch_add(applied, std::memory_order_relaxed);
    Publish();
  }
  return st;
}

void Replica::Publish() {
  auto snap = std::make_shared<EngineSnapshot>();
  snap->graph = graph_.Publish();
  snap->version = graph_.version();
  version_.store(snap->version, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot_ = std::move(snap);
  }
  snapshots_published_.fetch_add(1, std::memory_order_relaxed);
}

Result<MatchRelation> Replica::Evaluate(const Pattern& q,
                                        MatchSemantics semantics,
                                        const EvalOverrides& overrides,
                                        MatchContext* ctx, ServingPath* path) const {
  auto snap = snapshot();
  if (!snap) {
    return Status::NotFound("replica " + std::to_string(id_) +
                            " has no published snapshot yet");
  }
  return core_.Evaluate(*snap, q, semantics, overrides, ctx, path);
}

}  // namespace expfinder
