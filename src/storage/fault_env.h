// The injectable file-ops layer under every file the library reads or
// writes, plus the fault-injecting implementation that proves the recovery
// paths correct.
//
// WAL segments, checkpoints and GraphStore objects go through a FileOps,
// never through raw streams: RealFileOps (fault_env.cc) is the only code
// that touches the filesystem, so a test can interpose
// FaultyFileOps and crash the "process" at an exact byte offset, tear a
// write in half, fail an fsync or a rename, or flip a bit in flight — and
// then recover through a clean FileOps over the same directory, exactly
// like a real restart after a real crash.
//
// Crash model (FaultyFileOps):
//   * `crash_after_bytes` is a global write budget. The write that crosses
//     it is TRUNCATED at the boundary (that is the torn write — recovery
//     must cope with a half-written length field or payload), and every
//     later mutating operation fails with IOError("injected crash: ...").
//     Reads keep working so the test can immediately "reboot" and recover.
//   * `fail_sync_at_count` / `fail_rename_at_count` fail the Nth Sync()/
//     Rename() with IOError without crashing — the failed-durability path:
//     the caller must refuse to acknowledge, and recovery must still see a
//     consistent prefix.
//   * `flip_bit_at_byte` XORs one bit into the Nth byte written globally —
//     silent in-flight corruption that only the CRC can catch.

#ifndef EXPFINDER_STORAGE_FAULT_ENV_H_
#define EXPFINDER_STORAGE_FAULT_ENV_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/result.h"
#include "src/util/status.h"

namespace expfinder {

/// \brief Append-only handle to one file being written. Append buffers into
/// the OS; Sync makes previously appended bytes durable (fsync semantics —
/// under fault injection, un-synced bytes are the ones a crash may tear).
class WritableFile {
 public:
  virtual ~WritableFile() = default;
  virtual Status Append(std::string_view data) = 0;
  /// Durability barrier (fsync). Distinct from Append succeeding: a crash
  /// can tear appended-but-unsynced bytes.
  virtual Status Sync() = 0;
  /// Flush + close; further Appends are invalid. Idempotent.
  virtual Status Close() = 0;
};

/// \brief The file operations the storage layer is allowed to use. All
/// paths are plain strings; implementations are thread-safe.
class FileOps {
 public:
  virtual ~FileOps() = default;

  /// Opens `path` for writing. `truncate` starts the file empty; otherwise
  /// appends to existing content.
  virtual Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) = 0;

  /// Whole-file read (durable objects here are small-to-medium; WAL
  /// segments are bounded by WalOptions::segment_bytes).
  virtual Result<std::string> ReadFileToString(const std::string& path) const = 0;

  /// Atomic replace (rename(2)); the target only ever holds old or new.
  virtual Status Rename(const std::string& from, const std::string& to) = 0;

  virtual Status RemoveFile(const std::string& path) = 0;

  /// Shrinks `path` to `size` bytes (recovery chops torn WAL tails).
  virtual Status TruncateFile(const std::string& path, uint64_t size) = 0;

  /// Filenames (not paths) of regular files directly in `dir`; missing
  /// directory is an empty listing, not an error.
  virtual Result<std::vector<std::string>> ListDir(const std::string& dir) const = 0;

  virtual Status CreateDirs(const std::string& dir) = 0;

  /// The real filesystem; process-wide singleton.
  static FileOps* Real();
};

/// \brief Fault plan for FaultyFileOps; all counters are in the wrapped
/// ops' global write/sync/rename streams. 0 / negative = "never".
struct FaultPlan {
  /// Crash once this many payload bytes have been appended across all
  /// files: the crossing write is torn at the boundary, everything after
  /// fails. < 0 disables.
  int64_t crash_after_bytes = -1;
  /// Fail the Nth Sync() call (1-based) with IOError. 0 disables.
  uint64_t fail_sync_at_count = 0;
  /// Fail the Nth Rename() call (1-based) with IOError (the temp file is
  /// left behind, the target untouched). 0 disables.
  uint64_t fail_rename_at_count = 0;
  /// XOR `flip_bit_mask` into the byte at this 0-based offset of the
  /// global write stream. < 0 disables.
  int64_t flip_bit_at_byte = -1;
  uint8_t flip_bit_mask = 0x10;
};

/// \brief FileOps decorator injecting the FaultPlan over a base
/// implementation (the real filesystem in tests). See the crash model in
/// the header comment.
class FaultyFileOps : public FileOps {
 public:
  explicit FaultyFileOps(FaultPlan plan, FileOps* base = FileOps::Real())
      : plan_(plan), base_(base) {}

  Result<std::unique_ptr<WritableFile>> NewWritableFile(const std::string& path,
                                                        bool truncate) override;
  Result<std::string> ReadFileToString(const std::string& path) const override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status RemoveFile(const std::string& path) override;
  Status TruncateFile(const std::string& path, uint64_t size) override;
  Result<std::vector<std::string>> ListDir(const std::string& dir) const override;
  Status CreateDirs(const std::string& dir) override;

  /// True once the write budget was exhausted (every later mutating op has
  /// been failing).
  bool crashed() const;
  /// Total payload bytes accepted (post-tearing) across all files.
  int64_t bytes_written() const;
  uint64_t syncs() const { return syncs_; }
  uint64_t renames() const { return renames_; }

 private:
  friend class FaultyWritableFile;

  /// How many of `n` requested bytes the plan admits; flips `crashed_`
  /// when the budget is crossed. Also resolves bit flips for the admitted
  /// range via `flip_offset_in_write` (byte index within this write, or -1).
  size_t AdmitWrite(size_t n, int64_t* flip_offset_in_write);

  FaultPlan plan_;
  FileOps* base_;
  mutable std::mutex mu_;
  bool crashed_ = false;
  int64_t written_ = 0;
  uint64_t syncs_ = 0;
  uint64_t renames_ = 0;
};

}  // namespace expfinder

#endif  // EXPFINDER_STORAGE_FAULT_ENV_H_
