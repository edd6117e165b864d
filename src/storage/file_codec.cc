#include "src/storage/file_codec.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>

#include "src/util/crc32c.h"
#include "src/util/string_util.h"

namespace expfinder {

namespace {

std::string Crc32cHex(std::string_view body) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", Crc32c(body));
  return buf;
}

}  // namespace

Status WriteChecksummedFile(FileOps* fops, const std::string& path,
                            std::string_view body) {
  static std::atomic<uint64_t> seq{0};
  const std::string tmp = path + std::string(kChecksummedTempInfix) +
                          std::to_string(static_cast<long>(getpid())) + "." +
                          std::to_string(seq.fetch_add(1));
  Status st;
  {
    auto file = fops->NewWritableFile(tmp, /*truncate=*/true);
    if (!file.ok()) return file.status();
    st = (*file)->Append(std::string(kChecksumLinePrefix) + Crc32cHex(body) + "\n");
    if (st.ok()) st = (*file)->Append(body);
    if (st.ok()) st = (*file)->Sync();
    if (st.ok()) st = (*file)->Close();
  }
  if (st.ok()) st = fops->Rename(tmp, path);
  if (!st.ok()) fops->RemoveFile(tmp);
  return st;
}

Result<std::string> ReadChecksummedFile(FileOps* fops, const std::string& path) {
  auto content = fops->ReadFileToString(path);
  if (!content.ok()) return content.status();
  const std::string_view view = *content;
  if (view.empty()) return Status::Corruption("empty file: " + path);
  if (!StartsWith(view, kChecksumLinePrefix)) {
    return Status::Corruption("missing crc32c checksum header: " + path);
  }
  const size_t eol = view.find('\n');
  if (eol == std::string_view::npos) {
    return Status::Corruption("truncated file (no body after header): " + path);
  }
  const std::string_view hex = Trim(view.substr(
      kChecksumLinePrefix.size(), eol - kChecksumLinePrefix.size()));
  const std::string_view body = view.substr(eol + 1);
  if (hex != Crc32cHex(body)) return Status::Corruption("checksum mismatch: " + path);
  return std::string(body);
}

std::string LsnFileNames::Format(uint64_t lsn) const {
  char hex[24];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(lsn));
  std::string name(prefix);
  name += hex;
  name += suffix;
  return name;
}

std::optional<uint64_t> LsnFileNames::Parse(std::string_view name) const {
  if (name.size() != prefix.size() + 16 + suffix.size() ||
      !StartsWith(name, prefix) || name.substr(prefix.size() + 16) != suffix) {
    return std::nullopt;
  }
  uint64_t lsn = 0;
  for (char c : name.substr(prefix.size(), 16)) {
    uint64_t digit;
    if (c >= '0' && c <= '9') digit = static_cast<uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') digit = static_cast<uint64_t>(c - 'a') + 10;
    else return std::nullopt;
    lsn = (lsn << 4) | digit;
  }
  return lsn;
}

Result<std::vector<LsnFileNames::File>> LsnFileNames::List(
    FileOps* fops, const std::string& dir) const {
  auto names = fops->ListDir(dir);
  if (!names.ok()) return names.status();
  std::vector<File> files;
  for (const std::string& name : *names) {
    if (std::optional<uint64_t> lsn = Parse(name)) {
      files.push_back({*lsn, dir + "/" + name});
    }
  }
  std::sort(files.begin(), files.end(),
            [](const File& a, const File& b) { return a.lsn < b.lsn; });
  return files;
}

}  // namespace expfinder
