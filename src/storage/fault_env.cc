#include "src/storage/fault_env.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

namespace expfinder {

namespace fs = std::filesystem;

// --- Real filesystem ------------------------------------------------------

namespace {

std::string DirOf(const std::string& path) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

/// fsyncs a directory so entries created/renamed in it survive power loss,
/// not just process death.
Status SyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("cannot open directory for fsync: " + dir + ": " +
                           std::strerror(errno));
  }
  Status st = Status::OK();
  if (::fsync(fd) != 0) {
    st = Status::IOError("fsync directory " + dir + ": " + std::strerror(errno));
  }
  ::close(fd);
  return st;
}

class RealWritableFile : public WritableFile {
 public:
  RealWritableFile(int fd, std::string path)
      : fd_(fd), path_(std::move(path)) {}

  ~RealWritableFile() override { Close(); }

  Status Append(std::string_view data) override {
    if (fd_ < 0) return Status::IOError("append on closed file: " + path_);
    buf_.append(data);
    if (buf_.size() >= kBufferBytes) return FlushBuffered();
    return Status::OK();
  }

  Status Sync() override {
    if (fd_ < 0) return Status::IOError("sync on closed file: " + path_);
    EF_RETURN_NOT_OK(FlushBuffered());
    if (::fsync(fd_) != 0) {
      return Status::IOError("fsync failed: " + path_ + ": " +
                             std::strerror(errno));
    }
    if (dir_sync_pending_) {
      // The file's bytes are durable but its directory entry may not be:
      // sync the parent once so the first durable record also makes the
      // (possibly just-created) file reachable after power loss.
      EF_RETURN_NOT_OK(SyncDir(DirOf(path_)));
      dir_sync_pending_ = false;
    }
    return Status::OK();
  }

  Status Close() override {
    if (fd_ < 0) return Status::OK();
    Status st = FlushBuffered();
    if (::close(fd_) != 0 && st.ok()) {
      st = Status::IOError("close failed: " + path_ + ": " +
                           std::strerror(errno));
    }
    fd_ = -1;
    return st;
  }

 private:
  // Small user-space buffer so kNone/kInterval appends are not one write(2)
  // per record; Sync/Close always flush it first.
  static constexpr size_t kBufferBytes = 64u << 10;

  Status FlushBuffered() {
    const char* p = buf_.data();
    size_t left = buf_.size();
    while (left > 0) {
      ssize_t n = ::write(fd_, p, left);
      if (n < 0) {
        if (errno == EINTR) continue;
        buf_.erase(0, buf_.size() - left);
        return Status::IOError("write failed: " + path_ + ": " +
                               std::strerror(errno));
      }
      p += static_cast<size_t>(n);
      left -= static_cast<size_t>(n);
    }
    buf_.clear();
    return Status::OK();
  }

  int fd_;
  std::string path_;
  std::string buf_;
  /// The parent directory is fsync'd on the first Sync of this handle.
  bool dir_sync_pending_ = true;
};

class RealFileOps : public FileOps {
 public:
  Result<std::unique_ptr<WritableFile>> NewWritableFile(const std::string& path,
                                                        bool truncate) override {
    const int flags =
        O_WRONLY | O_CREAT | O_CLOEXEC | (truncate ? O_TRUNC : O_APPEND);
    int fd = ::open(path.c_str(), flags, 0644);
    if (fd < 0) {
      return Status::IOError("cannot open for writing: " + path + ": " +
                             std::strerror(errno));
    }
    return std::unique_ptr<WritableFile>(
        std::make_unique<RealWritableFile>(fd, path));
  }

  Result<std::string> ReadFileToString(const std::string& path) const override {
    std::ifstream f(path, std::ios::binary);
    if (!f.is_open()) return Status::NotFound("no such file: " + path);
    std::ostringstream ss;
    ss << f.rdbuf();
    if (f.bad()) return Status::IOError("read failed: " + path);
    return ss.str();
  }

  Status Rename(const std::string& from, const std::string& to) override {
    std::error_code ec;
    fs::rename(from, to, ec);
    if (ec) return Status::IOError("rename " + from + " -> " + to + ": " + ec.message());
    // The atomic-replace pattern (checksummed files, file_codec.h) is only
    // durable once the directory entry itself is: sync the target's parent.
    return SyncDir(DirOf(to));
  }

  Status RemoveFile(const std::string& path) override {
    std::error_code ec;
    const bool removed = fs::remove(path, ec);
    if (ec) return Status::IOError("cannot remove " + path + ": " + ec.message());
    if (!removed) return Status::NotFound("no such file: " + path);
    return Status::OK();
  }

  Status TruncateFile(const std::string& path, uint64_t size) override {
    std::error_code ec;
    fs::resize_file(path, size, ec);
    if (ec) return Status::IOError("truncate " + path + ": " + ec.message());
    return Status::OK();
  }

  Result<std::vector<std::string>> ListDir(const std::string& dir) const override {
    std::vector<std::string> out;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
      if (entry.is_regular_file()) out.push_back(entry.path().filename().string());
    }
    return out;
  }

  Status CreateDirs(const std::string& dir) override {
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) return Status::IOError("cannot create dir " + dir + ": " + ec.message());
    if (!fs::is_directory(dir)) {
      return Status::InvalidArgument("not a directory: " + dir);
    }
    return Status::OK();
  }
};

}  // namespace

FileOps* FileOps::Real() {
  static RealFileOps* ops = new RealFileOps();
  return ops;
}

// --- Fault injection ------------------------------------------------------

/// Writable handle routing every append through the owning FaultyFileOps'
/// budget before it reaches the base file.
class FaultyWritableFile : public WritableFile {
 public:
  FaultyWritableFile(FaultyFileOps* owner, std::unique_ptr<WritableFile> base)
      : owner_(owner), base_(std::move(base)) {}

  Status Append(std::string_view data) override {
    int64_t flip_at = -1;
    size_t admitted = owner_->AdmitWrite(data.size(), &flip_at);
    std::string_view head = data.substr(0, admitted);
    Status st;
    if (flip_at >= 0 && static_cast<size_t>(flip_at) < head.size()) {
      std::string mutated(head);
      mutated[static_cast<size_t>(flip_at)] ^=
          static_cast<char>(owner_->plan_.flip_bit_mask);
      st = base_->Append(mutated);
    } else if (!head.empty()) {
      st = base_->Append(head);
    }
    if (!st.ok()) return st;
    if (admitted < data.size()) {
      return Status::IOError("injected crash: write torn at byte budget");
    }
    return Status::OK();
  }

  Status Sync() override {
    {
      std::lock_guard<std::mutex> lock(owner_->mu_);
      if (owner_->crashed_) return Status::IOError("injected crash: sync");
      ++owner_->syncs_;
      if (owner_->plan_.fail_sync_at_count != 0 &&
          owner_->syncs_ == owner_->plan_.fail_sync_at_count) {
        return Status::IOError("injected fsync failure");
      }
    }
    return base_->Sync();
  }

  Status Close() override { return base_->Close(); }

 private:
  FaultyFileOps* owner_;
  std::unique_ptr<WritableFile> base_;
};

size_t FaultyFileOps::AdmitWrite(size_t n, int64_t* flip_offset_in_write) {
  std::lock_guard<std::mutex> lock(mu_);
  *flip_offset_in_write = -1;
  if (crashed_) return 0;
  size_t admitted = n;
  if (plan_.crash_after_bytes >= 0 &&
      written_ + static_cast<int64_t>(n) > plan_.crash_after_bytes) {
    admitted = static_cast<size_t>(plan_.crash_after_bytes - written_);
    crashed_ = true;
  }
  if (plan_.flip_bit_at_byte >= 0 && plan_.flip_bit_at_byte >= written_ &&
      plan_.flip_bit_at_byte < written_ + static_cast<int64_t>(admitted)) {
    *flip_offset_in_write = plan_.flip_bit_at_byte - written_;
  }
  written_ += static_cast<int64_t>(admitted);
  return admitted;
}

Result<std::unique_ptr<WritableFile>> FaultyFileOps::NewWritableFile(
    const std::string& path, bool truncate) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (crashed_) return Status::IOError("injected crash: open " + path);
  }
  auto base = base_->NewWritableFile(path, truncate);
  if (!base.ok()) return base.status();
  return std::unique_ptr<WritableFile>(
      std::make_unique<FaultyWritableFile>(this, std::move(base).value()));
}

Result<std::string> FaultyFileOps::ReadFileToString(const std::string& path) const {
  return base_->ReadFileToString(path);  // reads survive the crash (reboot model)
}

Status FaultyFileOps::Rename(const std::string& from, const std::string& to) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (crashed_) return Status::IOError("injected crash: rename");
    ++renames_;
    if (plan_.fail_rename_at_count != 0 &&
        renames_ == plan_.fail_rename_at_count) {
      return Status::IOError("injected rename failure: " + from + " -> " + to);
    }
  }
  return base_->Rename(from, to);
}

Status FaultyFileOps::RemoveFile(const std::string& path) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (crashed_) return Status::IOError("injected crash: remove");
  }
  return base_->RemoveFile(path);
}

Status FaultyFileOps::TruncateFile(const std::string& path, uint64_t size) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (crashed_) return Status::IOError("injected crash: truncate");
  }
  return base_->TruncateFile(path, size);
}

Result<std::vector<std::string>> FaultyFileOps::ListDir(
    const std::string& dir) const {
  return base_->ListDir(dir);
}

Status FaultyFileOps::CreateDirs(const std::string& dir) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (crashed_) return Status::IOError("injected crash: mkdir");
  }
  return base_->CreateDirs(dir);
}

bool FaultyFileOps::crashed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return crashed_;
}

int64_t FaultyFileOps::bytes_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return written_;
}

}  // namespace expfinder
