#include "src/storage/checkpoint.h"

#include <algorithm>
#include <sstream>

#include "src/graph/graph_io.h"
#include "src/storage/file_codec.h"
#include "src/util/string_util.h"

namespace expfinder {

namespace {

constexpr std::string_view kHeaderV2 = "# expfinder checkpoint v2";
constexpr LsnFileNames kCheckpointNames{"ckpt-", ".ckpt"};

/// Parses one checkpoint file's verified body; Corruption on any mismatch.
Result<RecoveredCheckpoint> ParseCheckpoint(std::string body,
                                            const std::string& path) {
  std::istringstream is(std::move(body));
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
  EF_RETURN_NOT_OK(WriteChecksummedFile(
      fops, options.dir + "/" + kCheckpointNames.Format(applied_lsn), body.view()));

  // Prune beyond `keep`, best effort — an extra stale checkpoint only costs
  // disk, never correctness.
  auto listed = kCheckpointNames.List(fops, options.dir);
  if (listed.ok()) {
    const size_t keep = std::max<size_t>(1, options.keep);
    for (size_t i = 0; i + keep < listed->size(); ++i) {
      fops->RemoveFile((*listed)[i].path);
    }
  }
  return Status::OK();
}

void RemoveCheckpointTemps(const CheckpointOptions& options) {
  FileOps* fops = options.file_ops ? options.file_ops : FileOps::Real();
  auto names = fops->ListDir(options.dir);
  if (!names.ok()) return;
  for (const std::string& name : *names) {
    const size_t infix = name.find(kChecksummedTempInfix);
    if (infix != std::string::npos &&
        kCheckpointNames.Parse(std::string_view(name).substr(0, infix))) {
      fops->RemoveFile(options.dir + "/" + name);
    }
  }
}

Result<RecoveredCheckpoint> ReadLatestCheckpoint(const CheckpointOptions& options) {
  FileOps* fops = options.file_ops ? options.file_ops : FileOps::Real();
  auto listed = kCheckpointNames.List(fops, options.dir);
  if (!listed.ok()) return listed.status();
  if (listed->empty()) {
    return Status::NotFound("no checkpoint in " + options.dir);
  }
  size_t corrupt_skipped = 0;
  std::string detail;
  for (auto it = listed->rbegin(); it != listed->rend(); ++it) {  // newest first
    auto body = ReadChecksummedFile(fops, it->path);
    Result<RecoveredCheckpoint> parsed =
        body.ok() ? ParseCheckpoint(std::move(body).value(), it->path)
                  : Result<RecoveredCheckpoint>(body.status());
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
