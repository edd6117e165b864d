// DurableGraph: the durability subsystem behind ExpFinderService — every
// acknowledged mutation (edge batch / node addition) is a CRC-framed WAL
// record, periodically folded into a checksummed checkpoint of the
// published graph, and recovery reconstructs checkpoint + WAL replay into
// exactly the graph the serial replay oracle produces (a batch prefix —
// never a torn half-batch, because a batch is one record and a record is
// valid only if its CRC over the whole payload holds).
//
// Record payloads are line-based text (consistent with every other durable
// format in the repo):
//
//     batch <n>            one edge-update batch, applied atomically
//     + <src> <dst>          (insert edge)
//     - <src> <dst>          (delete edge)
//
//     addnode <id> "<label>" key=value ...     one node, id = expected
//                                              NodeId (makes replay
//                                              idempotent and gap-checked)
//
// Replay is idempotent: an already-present insert / already-absent delete /
// already-added node is skipped, so a record covered by both a checkpoint
// and the WAL (the checkpoint-then-crash-before-truncate window) applies
// once. A record that *cannot* be consistent with the graph (an endpoint
// beyond NumNodes, an addnode id gap) is DataLoss — an earlier record went
// missing — and recovery degrades to the prefix before it.

#ifndef EXPFINDER_STORAGE_DURABLE_GRAPH_H_
#define EXPFINDER_STORAGE_DURABLE_GRAPH_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/graph/graph.h"
#include "src/incremental/update.h"
#include "src/storage/checkpoint.h"
#include "src/storage/wal.h"
#include "src/util/result.h"

namespace expfinder {

/// \brief Configuration of the durability subsystem. Embedded in
/// ServiceOptions; an empty `dir` disables durability entirely.
struct DurabilityOptions {
  /// Directory holding WAL segments and checkpoints. Empty = durability
  /// off (the in-memory-only behavior of earlier releases).
  std::string dir;
  /// File-ops implementation; nullptr = the real filesystem (tests inject
  /// FaultyFileOps).
  FileOps* file_ops = nullptr;
  /// When an appended record becomes durable; kEveryRecord is the policy
  /// under which an acknowledged Mutate survives any crash.
  FsyncPolicy fsync_policy = FsyncPolicy::kEveryRecord;
  /// Group-commit interval for FsyncPolicy::kInterval.
  double fsync_interval_ms = 5.0;
  /// WAL segment rotation threshold.
  size_t segment_bytes = 4u << 20;
  /// Write a checkpoint (and truncate covered WAL segments) once this many
  /// records accumulated past the last one. 0 = never checkpoint
  /// automatically (explicit Checkpoint() only).
  size_t checkpoint_every_n_batches = 64;
  /// Checkpoint files retained (newest first; older are pruned).
  size_t keep_checkpoints = 2;
  /// Service-level: run the periodic checkpoint on a serving-executor
  /// thread (from the published snapshot — writers are not stalled by
  /// serialization) instead of inline under the writer lock. Tests turn
  /// this off for determinism.
  bool background_checkpoints = true;
};

/// \brief What recovery found at Open.
struct GraphRecoveryInfo {
  /// A checkpoint was loaded (vs. recovery from an empty/initial graph).
  bool from_checkpoint = false;
  /// WAL records replayed on top of the checkpoint.
  size_t replayed_records = 0;
  /// Stale WAL records below the checkpoint LSN, skipped (duplicate-replay
  /// idempotence path).
  size_t skipped_records = 0;
  /// Newer-but-corrupt checkpoints skipped before one loaded.
  size_t corrupt_checkpoints_skipped = 0;
  /// A torn WAL tail was dropped (normal crash aftermath).
  bool tail_truncated = false;
  /// Acknowledged records are provably gone (mid-log corruption, LSN gap,
  /// every checkpoint corrupt, unapplicable record): the recovered graph is
  /// the best available prefix — serve it, but surface the loss.
  bool data_loss = false;
  std::string detail;
};

/// \brief WAL + checkpoint lifecycle over one graph. Appends must be
/// externally serialized with each other (the service's writer lock does
/// this); Checkpoint may run concurrently with them from another thread.
class DurableGraph {
 public:
  /// Opens the durability directory, which the returned object then owns
  /// alone, and recovers into `*g`. It first deletes the checkpoint temps a
  /// crash mid-checkpoint left there (RemoveCheckpointTemps); then:
  ///   * durable state present -> `*g` is REPLACED by checkpoint + replay;
  ///   * fresh directory -> `*g` is kept and becomes the initial
  ///     checkpoint (a pre-seeded graph is durable from boot).
  /// Environmental failure (cannot create dir) fails Open; corruption
  /// degrades through `info` instead.
  static Result<std::unique_ptr<DurableGraph>> Open(const DurabilityOptions& options,
                                                    Graph* g,
                                                    GraphRecoveryInfo* info);

  /// Appends one encoded record (EncodeBatch / EncodeAddNode; fsync per
  /// policy). The change must already be validated — callers log exactly
  /// what they applied, and may ship the same bytes to replicas.
  ///
  /// Failure semantics: if the record never entered the log (torn append,
  /// failed rotation) the log is SEALED — every later append/Checkpoint fails
  /// too. The caller applied a mutation the log will never hold; appending
  /// later mutations or checkpointing the diverged state would turn the log
  /// into a non-prefix of the applied history, which is worse than stopping
  /// (recovery would silently skip a mutation instead of losing a suffix).
  /// If the record was appended but its fsync failed, the log stays usable:
  /// the record is in place, merely not yet durable, and the caller simply
  /// must not ack it.
  Status AppendRecord(const std::string& payload);

  /// AppendRecord(EncodeBatch(batch)).
  Status LogBatch(const UpdateBatch& batch) { return AppendRecord(EncodeBatch(batch)); }

  /// True when checkpoint_every_n_batches records accumulated past the
  /// last checkpoint.
  bool CheckpointDue() const;

  /// Writes a checkpoint of `g` covering records below `applied_lsn`
  /// (callers pass the next_lsn() observed when `g`'s state was captured),
  /// then drops fully-covered WAL segments. Safe to call from a background
  /// thread while another thread keeps logging.
  Status Checkpoint(const Graph& g, uint64_t applied_lsn);

  /// Next LSN the WAL will assign (== records logged since the beginning).
  uint64_t next_lsn() const;

  size_t wal_segments() const;

  // --- Record codec (one encoding feeds AppendRecord and the replicas) ---

  static std::string EncodeBatch(const UpdateBatch& batch);
  static std::string EncodeAddNode(
      NodeId id, std::string_view label,
      const std::vector<std::pair<std::string, AttrValue>>& attrs);

  /// Applies one record to `g`, idempotently (see header comment) and all
  /// or nothing: on any error `g` and its version are unchanged.
  /// Corruption for unparseable payloads, DataLoss for records
  /// inconsistent with the graph (a prior record is missing).
  static Status ApplyRecord(Graph* g, std::string_view payload);

 private:
  DurableGraph(DurabilityOptions options, FileOps* fops)
      : options_(std::move(options)), fops_(fops) {}

  DurabilityOptions options_;
  FileOps* fops_;

  /// Guards wal_ and the checkpoint LSN bookkeeping. Checkpoint holds it
  /// only around WAL truncation, never across graph serialization.
  mutable std::mutex mu_;
  std::unique_ptr<Wal> wal_;          // guarded by mu_
  uint64_t last_checkpoint_lsn_ = 0;  // guarded by mu_
  bool sealed_ = false;               // guarded by mu_; see AppendRecord

  /// Serializes concurrent Checkpoint calls (one slow writer at a time).
  std::mutex checkpoint_mu_;
};

}  // namespace expfinder

#endif  // EXPFINDER_STORAGE_DURABLE_GRAPH_H_
