#include "src/storage/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <vector>

#include "src/graph/graph_io.h"
#include "src/util/crc32c.h"
#include "src/util/string_util.h"

namespace expfinder {

namespace {

constexpr std::string_view kChecksumPrefix = "# checksum crc32c:";
constexpr std::string_view kHeaderV2 = "# expfinder checkpoint v2";

std::string CheckpointName(uint64_t applied_lsn) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "ckpt-%016llx.ckpt",
                static_cast<unsigned long long>(applied_lsn));
  return buf;
}

bool ParseCheckpointName(const std::string& name, uint64_t* applied_lsn) {
  if (name.size() != 5 + 16 + 5 || name.compare(0, 5, "ckpt-") != 0 ||
      name.compare(21, 5, ".ckpt") != 0) {
    return false;
  }
  uint64_t lsn = 0;
  for (size_t i = 5; i < 21; ++i) {
    char c = name[i];
    uint64_t digit;
    if (c >= '0' && c <= '9') digit = static_cast<uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') digit = static_cast<uint64_t>(c - 'a') + 10;
    else return false;
    lsn = (lsn << 4) | digit;
  }
  *applied_lsn = lsn;
  return true;
}

/// Every checkpoint file name in `dir`, newest (highest LSN) first.
Result<std::vector<std::pair<uint64_t, std::string>>> ListCheckpoints(
    FileOps* fops, const std::string& dir) {
  auto names = fops->ListDir(dir);
  if (!names.ok()) return names.status();
  std::vector<std::pair<uint64_t, std::string>> out;
  for (const std::string& name : *names) {
    uint64_t lsn;
    if (ParseCheckpointName(name, &lsn)) out.emplace_back(lsn, name);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  return out;
}

/// Parses one checkpoint file's content; Corruption on any mismatch.
Result<RecoveredCheckpoint> ParseCheckpoint(const std::string& content,
                                            const std::string& path) {
  if (!StartsWith(content, kChecksumPrefix)) {
    return Status::Corruption("missing checkpoint checksum header: " + path);
  }
  size_t eol = content.find('\n');
  if (eol == std::string::npos) {
    return Status::Corruption("truncated checkpoint: " + path);
  }
  std::string_view hex = Trim(std::string_view(content).substr(
      kChecksumPrefix.size(), eol - kChecksumPrefix.size()));
  std::string_view body = std::string_view(content).substr(eol + 1);
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", Crc32c(body));
  if (hex != buf) {
    return Status::Corruption("checkpoint checksum mismatch: " + path);
  }
  std::istringstream is{std::string(body)};
  std::string line;
  if (!std::getline(is, line)) {
    return Status::Corruption("bad checkpoint header: " + path);
  }
  if (Trim(line) != kHeaderV2) {
    return Status::Corruption("bad checkpoint header: " + path);
  }
  if (!std::getline(is, line)) {
    return Status::Corruption("missing applied_lsn: " + path);
  }
  auto tokens = Split(std::string(Trim(line)), ' ');
  int64_t lsn;
  if (tokens.size() != 2 || tokens[0] != "applied_lsn" ||
      !ParseInt64(tokens[1], &lsn) || lsn < 0) {
    return Status::Corruption("bad applied_lsn line: " + path);
  }
  if (!std::getline(is, line)) {
    return Status::Corruption("missing graph_version: " + path);
  }
  auto vtokens = Split(std::string(Trim(line)), ' ');
  int64_t graph_version = 0;
  if (vtokens.size() != 2 || vtokens[0] != "graph_version" ||
      !ParseInt64(vtokens[1], &graph_version) || graph_version < 0) {
    return Status::Corruption("bad graph_version line: " + path);
  }
  auto graph = LoadGraphText(is);
  if (!graph.ok()) {
    return Status::Corruption("checkpoint graph unparseable (" +
                              graph.status().message() + "): " + path);
  }
  RecoveredCheckpoint out;
  out.graph = std::move(graph).value();
  out.applied_lsn = static_cast<uint64_t>(lsn);
  // Continue the checkpointed graph's version counter instead of the
  // parse-derived one (see header comment).
  out.graph.RestoreVersion(static_cast<uint64_t>(graph_version));
  return out;
}

}  // namespace

Status WriteCheckpoint(const CheckpointOptions& options, const Graph& g,
                       uint64_t applied_lsn) {
  FileOps* fops = options.file_ops ? options.file_ops : FileOps::Real();
  EF_RETURN_NOT_OK(fops->CreateDirs(options.dir));

  std::ostringstream body;
  body << kHeaderV2 << "\n";
  body << "applied_lsn " << applied_lsn << "\n";
  body << "graph_version " << g.version() << "\n";
  EF_RETURN_NOT_OK(SaveGraphText(g, body));
  std::string body_str = body.str();
  char crc[16];
  std::snprintf(crc, sizeof(crc), "%08x", Crc32c(body_str));

  const std::string path = options.dir + "/" + CheckpointName(applied_lsn);
  const std::string tmp = path + ".tmp";
  {
    auto file = fops->NewWritableFile(tmp, /*truncate=*/true);
    if (!file.ok()) return file.status();
    Status st = (*file)->Append(std::string(kChecksumPrefix) + crc + "\n");
    if (st.ok()) st = (*file)->Append(body_str);
    if (st.ok()) st = (*file)->Sync();
    if (st.ok()) st = (*file)->Close();
    if (!st.ok()) {
      fops->RemoveFile(tmp);  // best effort; a stray .tmp is harmless
      return st;
    }
  }
  EF_RETURN_NOT_OK(fops->Rename(tmp, path));

  // Prune beyond `keep`, best effort — an extra stale checkpoint only costs
  // disk, never correctness.
  auto listed = ListCheckpoints(fops, options.dir);
  if (listed.ok()) {
    const size_t keep = std::max<size_t>(1, options.keep);
    for (size_t i = keep; i < listed->size(); ++i) {
      fops->RemoveFile(options.dir + "/" + (*listed)[i].second);
    }
  }
  return Status::OK();
}

Result<RecoveredCheckpoint> ReadLatestCheckpoint(const CheckpointOptions& options) {
  FileOps* fops = options.file_ops ? options.file_ops : FileOps::Real();
  auto listed = ListCheckpoints(fops, options.dir);
  if (!listed.ok()) return listed.status();
  if (listed->empty()) {
    return Status::NotFound("no checkpoint in " + options.dir);
  }
  size_t corrupt_skipped = 0;
  std::string detail;
  for (const auto& [lsn, name] : *listed) {
    const std::string path = options.dir + "/" + name;
    auto content = fops->ReadFileToString(path);
    Result<RecoveredCheckpoint> parsed =
        content.ok() ? ParseCheckpoint(*content, path)
                     : Result<RecoveredCheckpoint>(content.status());
    if (parsed.ok()) {
      parsed->corrupt_skipped = corrupt_skipped;
      parsed->detail = std::move(detail);
      return parsed;
    }
    ++corrupt_skipped;
    detail += parsed.status().message() + "; ";
  }
  return Status::DataLoss("every checkpoint in " + options.dir +
                          " is corrupt: " + detail);
}

}  // namespace expfinder
