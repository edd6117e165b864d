// Record-framed write-ahead log with segment rotation, CRC32C integrity,
// configurable fsync policy, and torn-tail-tolerant recovery. The durable
// half of the mutation path: DurableGraph appends one record per
// acknowledged mutation and replays the log (from the last checkpoint) at
// boot.
//
// On-disk layout: `<dir>/wal-<first-lsn, 16 hex>.log` (an LsnFileNames
// family, file_codec.h, so a listing orders the segments), every byte read
// and written through FileOps, each segment a sequence of records
//
//     [u32 payload length LE] [u32 CRC32C(payload) LE] [payload bytes]
//
// Appends go to the newest segment until it reaches segment_bytes, then a
// new segment named by the next LSN starts. Sealed segments are never
// written again. LSNs (log sequence numbers) number records 0, 1, 2, ...
// across segments; the segment file name carries its first record's LSN,
// so recovery can order segments, detect gaps, and checkpointing can drop
// whole sealed segments below the checkpoint LSN.
//
// Recovery (Wal::Open) replays the longest valid record prefix:
//   * a torn/invalid record in the FINAL segment is a crashed append — the
//     tail is physically truncated and the log continues from there
//     (tail_truncated reported, not an error);
//   * an invalid record in an EARLIER segment, or an LSN gap between
//     segments, means acknowledged records are gone — replay stops at the
//     last good prefix and data_loss is reported so the caller can degrade
//     instead of aborting.
// In both cases recovery physically converges the directory to exactly the
// replayed prefix: the invalid suffix is truncated (the whole file removed
// when nothing in it was valid) and every later segment — unreachable by
// definition, its LSNs past the lost records — is deleted. A data_loss
// boot is therefore degraded ONCE: records appended after it are reachable
// by the next recovery instead of being shadowed by the old corruption.
// Appends after recovery always start a fresh segment, so recovery never
// re-appends into a file another process version half-wrote. Rotation
// syncs the sealed segment under every fsync policy — a sealed segment is
// never torn, so kInterval/kNone keep their bounded-tail-loss semantics.

#ifndef EXPFINDER_STORAGE_WAL_H_
#define EXPFINDER_STORAGE_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/storage/fault_env.h"
#include "src/util/result.h"
#include "src/util/status.h"
#include "src/util/timer.h"

namespace expfinder {

/// \brief When appended records become durable.
enum class FsyncPolicy {
  /// Never sync explicitly; the OS flushes when it likes. Fastest, and a
  /// crash can lose any suffix of appends (still a valid prefix).
  kNone,
  /// Sync at most once per interval (group commit): an append syncs when
  /// `fsync_interval_ms` has passed since the last sync. Bounds the loss
  /// window without paying a sync per record.
  kInterval,
  /// Sync every record before Append returns: an acknowledged append is
  /// durable. The policy the acked-mutation guarantee needs.
  kEveryRecord,
};

std::string_view FsyncPolicyName(FsyncPolicy policy);

struct WalOptions {
  std::string dir;
  /// File-ops implementation; nullptr = the real filesystem. Tests inject
  /// FaultyFileOps here.
  FileOps* file_ops = nullptr;
  FsyncPolicy fsync_policy = FsyncPolicy::kEveryRecord;
  /// Group-commit interval for FsyncPolicy::kInterval.
  double fsync_interval_ms = 5.0;
  /// Rotation threshold: an append that would grow the current segment
  /// beyond this starts a new one. (A single record larger than the
  /// threshold still lands whole — records never span segments.)
  size_t segment_bytes = 4u << 20;
};

/// \brief One recovered record.
struct WalRecord {
  uint64_t lsn = 0;
  std::string payload;
};

/// \brief What Wal::Open found on disk.
struct WalRecovery {
  /// The longest valid record prefix, in LSN order.
  std::vector<WalRecord> records;
  /// Next LSN to be assigned (== records.back().lsn + 1 when any).
  uint64_t next_lsn = 0;
  /// A torn tail in the final segment was dropped (normal after a crash).
  bool tail_truncated = false;
  /// Corruption before the final segment or an LSN gap: records beyond the
  /// returned prefix existed but are unrecoverable.
  bool data_loss = false;
  /// Human-readable account of anything abnormal.
  std::string detail;
};

/// \brief One bounded read of the log's tail (see Wal::TailFrom).
struct WalTail {
  /// Records with lsn >= the requested cursor, contiguous and in LSN order.
  std::vector<WalRecord> records;
  /// Cursor after this read: records.back().lsn + 1 when any were
  /// returned, the requested cursor otherwise.
  uint64_t next_lsn = 0;
  /// The oldest record still on disk is PAST the requested cursor: the
  /// records in between were truncated into a checkpoint (or lost), so the
  /// reader cannot continue by tailing — it must re-anchor (load a
  /// checkpoint / install a fresh snapshot) and resume from there.
  bool lost_prefix = false;
};

/// \brief Append-side handle to the log. Not internally synchronized —
/// callers serialize appends (DurableGraph wraps it in a mutex).
class Wal {
 public:
  /// Opens (creating the directory if needed) and recovers the log in
  /// `options.dir`. `recovery` (required) receives the replayed prefix.
  /// Fails only on environmental errors (cannot create/list the
  /// directory); corruption is reported through `recovery`, never thrown
  /// back as failure.
  static Result<std::unique_ptr<Wal>> Open(const WalOptions& options,
                                           WalRecovery* recovery);

  /// Appends one record, rotating and syncing per policy; returns its LSN.
  Result<uint64_t> Append(std::string_view payload);

  /// Explicit durability barrier regardless of policy.
  Status Sync();

  /// Drops sealed segments whose records all have LSN < `lsn` (they are
  /// covered by a checkpoint). The active segment is never dropped.
  Status TruncateBefore(uint64_t lsn);

  /// Seals the current segment; the next Append starts a new one. Used
  /// before TruncateBefore when the checkpoint covers the active segment.
  void Rotate() { writer_.reset(); }

  /// Reads records with lsn >= `from_lsn` from the segments in `dir`, up
  /// to `max_records`, with no coordination with a live appender: the tail
  /// is re-scanned from the directory each call, a half-written frame at
  /// the live end simply stops the read (never an error), and the next
  /// call resumes from the returned cursor. The returned batch is always a
  /// contiguous LSN run. This is the replication feed (see
  /// src/replication/delta.h): a replica tails the log of a running
  /// primary, and a record becomes visible once its bytes reach the file —
  /// under FsyncPolicy::kEveryRecord, by the time Append returns.
  static Result<WalTail> TailFrom(const std::string& dir, FileOps* file_ops,
                                  uint64_t from_lsn, size_t max_records);

  /// Instance convenience over this log's directory and file ops. Safe to
  /// call while this Wal keeps appending (the scan never touches
  /// segments_), but like every other member it must not race the
  /// appender from another thread without external serialization.
  Result<WalTail> TailFrom(uint64_t from_lsn, size_t max_records) const {
    return TailFrom(options_.dir, fops_, from_lsn, max_records);
  }

  uint64_t next_lsn() const { return next_lsn_; }
  /// Number of segment files (including the active one).
  size_t NumSegments() const { return segments_.size(); }

  /// Upper bound on a sane record (guards recovery against a garbage
  /// length field allocating gigabytes).
  static constexpr uint32_t kMaxRecordBytes = 256u << 20;

 private:
  struct Segment {
    uint64_t first_lsn = 0;
    uint64_t record_count = 0;  // valid records (recovery) / appended (live)
    std::string path;
  };

  Wal(WalOptions options, FileOps* fops) : options_(std::move(options)), fops_(fops) {}

  Status OpenFreshSegment();

  WalOptions options_;
  FileOps* fops_;
  std::vector<Segment> segments_;  // ascending first_lsn; back() is active
  std::unique_ptr<WritableFile> writer_;  // null until the first append
  size_t writer_bytes_ = 0;
  uint64_t next_lsn_ = 0;
  Timer last_sync_;
};

/// Encodes one record frame (exposed for tests that hand-craft torn logs).
std::string EncodeWalRecord(std::string_view payload);

}  // namespace expfinder

#endif  // EXPFINDER_STORAGE_WAL_H_
