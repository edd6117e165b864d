// The two file conventions the storage layer shares, both on FileOps:
//
//   * The checksummed file (checkpoints, GraphStore objects): one header
//     line carrying the CRC32C of everything after it, then the body.
//
//         # checksum crc32c:<8 lower-case hex>
//         <body>
//
//   * The LSN-named file (WAL segments, checkpoints):
//     `<prefix><LSN as 16 lower-case hex><suffix>`, so a directory listing
//     orders a family by LSN without reading a byte.

#ifndef EXPFINDER_STORAGE_FILE_CODEC_H_
#define EXPFINDER_STORAGE_FILE_CODEC_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/storage/fault_env.h"
#include "src/util/result.h"
#include "src/util/status.h"

namespace expfinder {

/// The checksummed file's header line up to its 8 hex digits.
inline constexpr std::string_view kChecksumLinePrefix = "# checksum crc32c:";

/// What WriteChecksummedFile appends to the target path to name its temp.
inline constexpr std::string_view kChecksummedTempInfix = ".tmp.";

/// Replaces `path` with a checksummed file holding `body`, atomically and
/// durably: the bytes go to a temp sibling `<path>.tmp.<pid>.<seq>`, named
/// uniquely per call (pid and a process-wide sequence, so concurrent
/// writers of one path never share one), which is synced, closed and
/// renamed over `path` (Rename syncs the directory). On any failure the
/// temp is removed (best effort) and `path` keeps its previous bytes, or
/// stays absent; a crash before the rename leaves at worst a stray
/// `<path>.tmp.*` no reader looks at, for the directory's owner to sweep.
Status WriteChecksummedFile(FileOps* fops, const std::string& path,
                            std::string_view body);

/// The verified body of the checksummed file at `path`. NotFound when it
/// is absent; Corruption naming the path when it is empty, has no body
/// line, lacks the header (or carries another checksum form), or its
/// checksum does not match.
Result<std::string> ReadChecksummedFile(FileOps* fops, const std::string& path);

/// \brief One family of `<prefix><16 hex LSN><suffix>` file names.
struct LsnFileNames {
  std::string_view prefix;
  std::string_view suffix;

  struct File {
    uint64_t lsn = 0;
    std::string path;  // `<dir>/<name>`
  };

  std::string Format(uint64_t lsn) const;
  /// The LSN `name` carries, or nullopt for a name outside the family.
  std::optional<uint64_t> Parse(std::string_view name) const;
  /// Every file of the family directly in `dir`, in ascending LSN order.
  Result<std::vector<File>> List(FileOps* fops, const std::string& dir) const;
};

}  // namespace expfinder

#endif  // EXPFINDER_STORAGE_FILE_CODEC_H_
