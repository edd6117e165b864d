// Checkpoint files: a checksummed, atomically-replaced serialization of a
// published graph plus the WAL position it covers. Recovery = newest good
// checkpoint + replay of WAL records at or above its LSN; WAL segments
// below it can be dropped.
//
// On-disk: `<dir>/ckpt-<applied-lsn, 16 hex>.ckpt` (an LsnFileNames
// family), each a checksummed file (both in file_codec.h: synced temp file,
// atomic rename, the same path every GraphStore object takes) whose body
// is:
//
//     # expfinder checkpoint v2
//     applied_lsn <n>
//     graph_version <v>
//     <graph text format (graph_io.h)>
//
// Recovery restores the version counter the graph had when it was
// checkpointed (Graph::RestoreVersion), so versions stay continuous across
// restarts and replicas bootstrapped from a checkpoint number their
// snapshots exactly like the primary. Any other header (including the
// retired v1, which had no graph_version line) is corruption.
//
// The newest `keep` checkpoints are retained; a corrupt newest checkpoint
// degrades to the next older one (counted, reported) instead of failing
// recovery outright.

#ifndef EXPFINDER_STORAGE_CHECKPOINT_H_
#define EXPFINDER_STORAGE_CHECKPOINT_H_

#include <cstdint>
#include <string>

#include "src/graph/graph.h"
#include "src/storage/fault_env.h"
#include "src/util/result.h"

namespace expfinder {

struct CheckpointOptions {
  std::string dir;
  /// nullptr = the real filesystem.
  FileOps* file_ops = nullptr;
  /// Checkpoints to retain (>= 1); older ones are pruned after a
  /// successful write.
  size_t keep = 2;
};

/// \brief Result of checkpoint recovery.
struct RecoveredCheckpoint {
  Graph graph;
  /// WAL records with lsn >= applied_lsn are NOT in `graph` and must be
  /// replayed.
  uint64_t applied_lsn = 0;
  /// Newer checkpoint files that failed their checksum / parse and were
  /// skipped (each one is a degradation the caller should count).
  size_t corrupt_skipped = 0;
  std::string detail;
};

/// Writes a checkpoint of `g` covering WAL records below `applied_lsn`,
/// then prunes to `options.keep` newest (prune failures are ignored — a
/// stale extra checkpoint is harmless).
Status WriteCheckpoint(const CheckpointOptions& options, const Graph& g,
                       uint64_t applied_lsn);

/// Deletes the temps a crash during WriteCheckpoint leaves in `options.dir`
/// (`ckpt-<16 hex>.ckpt.tmp.*`); every other file stays. Best effort: a
/// temp that cannot be removed is harmless, since no reader opens one.
/// Only the directory's one writer may call it, or it could delete the
/// temp of a checkpoint in flight.
void RemoveCheckpointTemps(const CheckpointOptions& options);

/// Loads the newest readable checkpoint, falling back over corrupt ones.
/// NotFound when the directory holds no checkpoint at all; DataLoss when
/// checkpoints exist but every one is corrupt.
Result<RecoveredCheckpoint> ReadLatestCheckpoint(const CheckpointOptions& options);

}  // namespace expfinder

#endif  // EXPFINDER_STORAGE_CHECKPOINT_H_
