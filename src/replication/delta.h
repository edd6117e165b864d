// The versioned delta feed of the replication subsystem (ROADMAP scale-out
// item, first half): the WAL's LSN-ordered mutation records — exactly what
// DurableGraph appends per acknowledged Mutate/AddNode — double as the
// delta stream a replica applies instead of receiving full graph copies.
//
// Two layers, bottom up:
//
//   * The codec is DurableGraph's record format verbatim (`batch`/`addnode`
//     text payloads; see durable_graph.h). A Delta is just a WalRecord:
//     (lsn, payload). ApplyDelta == DurableGraph::ApplyRecord, so a replica
//     replays records with the same idempotence and gap-checking as crash
//     recovery — and performs the same version bumps as the primary's
//     original mutations, which is what keeps replica version numbering
//     bit-identical to the primary's.
//   * DeltaSource is the pluggable transport interface the fleet consumes
//     (fetch + blocking await + producer horizon). InProcessDeltaSource is
//     the in-process implementation: the primary Ships every logged record
//     into a bounded in-memory window (the live feed — no file reads on the
//     hot path), and fetches below the window fall back to tailing the WAL
//     directory (Wal::TailFrom, which needs no coordination with a live
//     appender) when one is configured: the catch-up feed a restarted or
//     lagged replica reads after its checkpoint. A network transport slots
//     in by implementing the same three methods against an RPC stream.
//
// A fetch below everything the source can still produce reports
// lost_prefix: the subscriber must re-anchor (checkpoint or full snapshot
// install) — the same contract WAL truncation imposes on crash recovery.

#ifndef EXPFINDER_REPLICATION_DELTA_H_
#define EXPFINDER_REPLICATION_DELTA_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "src/graph/graph.h"
#include "src/storage/fault_env.h"
#include "src/storage/wal.h"
#include "src/util/result.h"
#include "src/util/status.h"

namespace expfinder {

/// One versioned delta: an LSN-stamped mutation record in the WAL codec.
using Delta = WalRecord;

/// \brief One fetched run of deltas, contiguous and in LSN order.
struct DeltaBatch {
  std::vector<Delta> deltas;
  /// Records at the requested cursor are gone below the source's horizon
  /// (WAL truncation / window eviction): the subscriber cannot continue by
  /// tailing and must re-anchor from a checkpoint or snapshot install.
  bool lost_prefix = false;
};

/// Applies one delta to `g` — DurableGraph::ApplyRecord: idempotent for
/// records the graph already reflects, DataLoss for records that cannot be
/// consistent with it (a prior record is missing).
Status ApplyDelta(Graph* g, const Delta& delta);

/// \brief The transport interface a ReplicaFleet consumes. Implementations
/// must be thread-safe: every replica applier fetches concurrently, and the
/// primary produces from its writer thread.
class DeltaSource {
 public:
  virtual ~DeltaSource() = default;

  /// Records with lsn >= from_lsn, up to `max`, contiguous and in LSN
  /// order; empty when nothing past the cursor is available yet.
  virtual Result<DeltaBatch> Fetch(uint64_t from_lsn, size_t max) = 0;

  /// Blocks until a record with lsn >= from_lsn may be available, the
  /// timeout passes, or the source closes. Returns true when woken by new
  /// records (a hint — the caller re-Fetches either way).
  virtual bool AwaitRecords(uint64_t from_lsn, double timeout_ms) = 0;

  /// The producer's horizon: the next LSN it will assign. end_lsn() minus
  /// a replica's applied cursor is that replica's lag in records.
  virtual uint64_t end_lsn() const = 0;
};

/// \brief In-process DeltaSource: a bounded in-memory window of the most
/// recently shipped records (the live feed), backed by a WAL-directory tail
/// for fetches below the window (the catch-up feed). With no WAL directory
/// configured (durability off), a fetch below the window is a lost prefix
/// and the subscriber re-installs a snapshot.
class InProcessDeltaSource : public DeltaSource {
 public:
  struct Options {
    /// Live records retained in memory. A replica lagging further than
    /// this catches up from the WAL tail (or re-installs when there is
    /// none).
    size_t window_records = 1024;
    /// WAL directory for below-window fetches; empty = none.
    std::string wal_dir;
    /// nullptr = the real filesystem.
    FileOps* file_ops = nullptr;
  };

  /// `start_lsn` is the LSN the next Ship will carry (the primary's WAL
  /// next_lsn at fleet start, or 0 when durability is off).
  InProcessDeltaSource(Options options, uint64_t start_lsn)
      : options_(std::move(options)),
        window_start_(start_lsn),
        end_lsn_(start_lsn) {}

  /// Producer side: publishes one record into the window and wakes
  /// subscribers. Calls must be serialized (the service's writer lock) and
  /// contiguous: `lsn` must equal end_lsn().
  void Ship(uint64_t lsn, std::string payload);

  /// Permanently wakes every waiter (fleet shutdown).
  void Close();

  Result<DeltaBatch> Fetch(uint64_t from_lsn, size_t max) override;
  bool AwaitRecords(uint64_t from_lsn, double timeout_ms) override;
  uint64_t end_lsn() const override;

 private:
  const Options options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Delta> window_;   // guarded by mu_; contiguous LSNs
  uint64_t window_start_;      // guarded by mu_; LSN of window_.front()
  uint64_t end_lsn_;           // guarded by mu_; next LSN Ship assigns
  bool closed_ = false;        // guarded by mu_
};

}  // namespace expfinder

#endif  // EXPFINDER_REPLICATION_DELTA_H_
