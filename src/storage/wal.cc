#include "src/storage/wal.h"

#include "src/storage/file_codec.h"
#include "src/util/crc32c.h"

namespace expfinder {

namespace {

constexpr size_t kHeaderBytes = 8;  // u32 length + u32 crc

uint32_t LoadLE32(const char* p) {
  const unsigned char* u = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint32_t>(u[0]) | (static_cast<uint32_t>(u[1]) << 8) |
         (static_cast<uint32_t>(u[2]) << 16) | (static_cast<uint32_t>(u[3]) << 24);
}

void AppendLE32(std::string* out, uint32_t v) {
  out->push_back(static_cast<char>(v & 0xFF));
  out->push_back(static_cast<char>((v >> 8) & 0xFF));
  out->push_back(static_cast<char>((v >> 16) & 0xFF));
  out->push_back(static_cast<char>((v >> 24) & 0xFF));
}

constexpr LsnFileNames kSegmentNames{"wal-", ".log"};

}  // namespace

std::string_view FsyncPolicyName(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kNone: return "none";
    case FsyncPolicy::kInterval: return "interval";
    case FsyncPolicy::kEveryRecord: return "every_record";
  }
  return "unknown";
}

std::string EncodeWalRecord(std::string_view payload) {
  std::string frame;
  frame.reserve(kHeaderBytes + payload.size());
  AppendLE32(&frame, static_cast<uint32_t>(payload.size()));
  AppendLE32(&frame, Crc32c(payload));
  frame.append(payload);
  return frame;
}

Result<std::unique_ptr<Wal>> Wal::Open(const WalOptions& options,
                                       WalRecovery* recovery) {
  FileOps* fops = options.file_ops ? options.file_ops : FileOps::Real();
  EF_RETURN_NOT_OK(fops->CreateDirs(options.dir));
  *recovery = WalRecovery{};

  auto listed = kSegmentNames.List(fops, options.dir);
  if (!listed.ok()) return listed.status();
  std::vector<Segment> segments;
  for (LsnFileNames::File& file : *listed) {
    segments.push_back({file.lsn, 0, std::move(file.path)});
  }

  std::unique_ptr<Wal> wal(new Wal(options, fops));
  uint64_t expected_lsn = segments.empty() ? 0 : segments.front().first_lsn;

  // On data_loss the on-disk chain must physically converge to the
  // recovered prefix: segments past the stop point can never be replayed
  // (their LSNs are beyond the lost records), and left behind they would
  // make the NEXT recovery stop at the same point — silently discarding
  // appends acknowledged after this (degraded) boot — or splice stale
  // old-era records onto a shorter chain.
  auto drop_segments_from = [&](size_t from) {
    for (size_t i = from; i < segments.size(); ++i) {
      Status st = fops->RemoveFile(segments[i].path);
      if (!st.ok() && !st.IsNotFound()) {
        recovery->detail += "failed to remove unreachable segment " +
                            segments[i].path + ": " + st.message() + "; ";
      }
    }
  };

  for (size_t si = 0; si < segments.size(); ++si) {
    Segment& seg = segments[si];
    const bool final_segment = (si + 1 == segments.size());
    if (seg.first_lsn != expected_lsn) {
      // A whole segment (or a tail of the previous one) is missing.
      recovery->data_loss = true;
      recovery->detail += "LSN gap: expected " + std::to_string(expected_lsn) +
                          ", segment starts at " + std::to_string(seg.first_lsn) +
                          " (" + seg.path + "), unreachable segments removed; ";
      drop_segments_from(si);
      break;
    }
    auto content = fops->ReadFileToString(seg.path);
    if (!content.ok()) {
      recovery->data_loss = true;
      recovery->detail += "unreadable segment " + seg.path + ": " +
                          content.status().message() +
                          ", segment and successors removed; ";
      drop_segments_from(si);
      break;
    }
    const std::string& bytes = *content;
    size_t off = 0;
    std::string why;
    while (off < bytes.size() && why.empty()) {
      if (bytes.size() - off < kHeaderBytes) {
        why = "torn header";
        break;
      }
      uint32_t len = LoadLE32(bytes.data() + off);
      uint32_t crc = LoadLE32(bytes.data() + off + 4);
      if (len > kMaxRecordBytes) {
        why = "oversized length field (" + std::to_string(len) + ")";
        break;
      }
      if (bytes.size() - off - kHeaderBytes < len) {
        why = "torn payload";
        break;
      }
      std::string_view payload(bytes.data() + off + kHeaderBytes, len);
      if (Crc32c(payload) != crc) {
        why = "CRC mismatch";
        break;
      }
      recovery->records.push_back({expected_lsn, std::string(payload)});
      ++expected_lsn;
      ++seg.record_count;
      off += kHeaderBytes + len;
    }
    if (why.empty()) {
      wal->segments_.push_back(seg);
      continue;
    }
    // Invalid record at `off`: the prefix before it is the longest valid
    // prefix of the whole log (later segments could only continue past the
    // records lost here).
    recovery->detail += why + " at byte " + std::to_string(off) + " of " + seg.path;
    if (final_segment) {
      recovery->tail_truncated = true;
      recovery->detail += ", tail truncated; ";
    } else {
      recovery->data_loss = true;
      recovery->detail += " (not the final segment), unreachable segments removed; ";
      drop_segments_from(si + 1);
    }
    // Physically chop the invalid suffix so the next recovery sees a clean
    // final segment whatever happens after this boot.
    if (off == 0) {
      // No valid record at all: remove the file outright — the fresh
      // segment a post-recovery append creates carries this same LSN in
      // its name and must not collide with a half-dead twin.
      Status st = fops->RemoveFile(seg.path);
      if (!st.ok() && !st.IsNotFound()) {
        recovery->detail += "removal of invalid segment failed: " +
                            st.message() + "; ";
      }
    } else {
      Status st = fops->TruncateFile(seg.path, off);
      if (!st.ok()) {
        recovery->detail += "tail truncation failed: " + st.message() + "; ";
      }
      wal->segments_.push_back(seg);
    }
    break;
  }
  recovery->next_lsn = expected_lsn;
  wal->next_lsn_ = expected_lsn;
  return wal;
}

Result<WalTail> Wal::TailFrom(const std::string& dir, FileOps* file_ops,
                              uint64_t from_lsn, size_t max_records) {
  FileOps* fops = file_ops != nullptr ? file_ops : FileOps::Real();
  WalTail tail;
  tail.next_lsn = from_lsn;

  auto listed = kSegmentNames.List(fops, dir);
  if (!listed.ok()) return listed.status();
  const std::vector<LsnFileNames::File>& segments = *listed;

  uint64_t cursor = from_lsn;
  for (size_t si = 0; si < segments.size(); ++si) {
    if (tail.records.size() >= max_records) break;
    // Sealed segment si holds LSNs [first_lsn, next segment's first_lsn):
    // skip the ones wholly below the cursor without reading them.
    if (si + 1 < segments.size() && segments[si + 1].lsn <= cursor) continue;
    const uint64_t seg_first = segments[si].lsn;
    if (seg_first > cursor) {
      // [cursor, seg_first) is gone — truncated into a checkpoint, or lost.
      if (!tail.records.empty()) break;  // keep the batch contiguous
      tail.lost_prefix = true;
      cursor = seg_first;
    }
    auto content = fops->ReadFileToString(segments[si].path);
    if (!content.ok()) break;  // removed/unreadable mid-scan: stop here
    const std::string& bytes = *content;
    size_t off = 0;
    uint64_t lsn = seg_first;
    bool stopped_midframe = false;
    while (off < bytes.size() && tail.records.size() < max_records) {
      if (bytes.size() - off < kHeaderBytes) {
        stopped_midframe = true;  // live/torn tail: a later call retries
        break;
      }
      const uint32_t len = LoadLE32(bytes.data() + off);
      const uint32_t crc = LoadLE32(bytes.data() + off + 4);
      if (len > kMaxRecordBytes || bytes.size() - off - kHeaderBytes < len) {
        stopped_midframe = true;
        break;
      }
      std::string_view payload(bytes.data() + off + kHeaderBytes, len);
      if (Crc32c(payload) != crc) {
        stopped_midframe = true;
        break;
      }
      if (lsn >= cursor) {
        tail.records.push_back({lsn, std::string(payload)});
        cursor = lsn + 1;
      }
      ++lsn;
      off += kHeaderBytes + len;
    }
    // A scan that stopped inside this segment must not continue into the
    // next one: whatever follows is not LSN-contiguous with what we have.
    if (stopped_midframe) break;
    if (lsn > cursor) cursor = lsn;
  }
  if (!tail.records.empty()) tail.next_lsn = tail.records.back().lsn + 1;
  return tail;
}

Status Wal::OpenFreshSegment() {
  Segment seg;
  seg.first_lsn = next_lsn_;
  seg.path = options_.dir + "/" + kSegmentNames.Format(next_lsn_);
  auto writer = fops_->NewWritableFile(seg.path, /*truncate=*/true);
  if (!writer.ok()) return writer.status();
  writer_ = std::move(writer).value();
  writer_bytes_ = 0;
  segments_.push_back(std::move(seg));
  return Status::OK();
}

Result<uint64_t> Wal::Append(std::string_view payload) {
  if (payload.size() > kMaxRecordBytes) {
    return Status::InvalidArgument("WAL record too large: " +
                                   std::to_string(payload.size()) + " bytes");
  }
  if (writer_ != nullptr && writer_bytes_ >= options_.segment_bytes) {
    // Seal and rotate. Sync regardless of policy: a torn tail in a sealed
    // (no-longer-final) segment reads as data_loss at recovery, not the
    // bounded tail loss kInterval/kNone signed up for — one sync per
    // segment_bytes closes that window cheaply.
    EF_RETURN_NOT_OK(writer_->Sync());
    last_sync_.Reset();
    writer_.reset();
  }
  if (writer_ == nullptr) {
    EF_RETURN_NOT_OK(OpenFreshSegment());
  }
  std::string frame = EncodeWalRecord(payload);
  EF_RETURN_NOT_OK(writer_->Append(frame));
  writer_bytes_ += frame.size();
  const uint64_t lsn = next_lsn_++;
  segments_.back().record_count++;
  switch (options_.fsync_policy) {
    case FsyncPolicy::kNone:
      break;
    case FsyncPolicy::kEveryRecord:
      EF_RETURN_NOT_OK(writer_->Sync());
      break;
    case FsyncPolicy::kInterval:
      if (last_sync_.ElapsedMillis() >= options_.fsync_interval_ms) {
        EF_RETURN_NOT_OK(writer_->Sync());
        last_sync_.Reset();
      }
      break;
  }
  return lsn;
}

Status Wal::Sync() {
  if (writer_ == nullptr) return Status::OK();
  EF_RETURN_NOT_OK(writer_->Sync());
  last_sync_.Reset();
  return Status::OK();
}

Status Wal::TruncateBefore(uint64_t lsn) {
  Status first_error = Status::OK();
  size_t dropped = 0;
  for (size_t i = 0; i + 1 < segments_.size(); ++i) {
    // Sealed segment i holds LSNs [first_lsn, segments_[i+1].first_lsn).
    if (segments_[i + 1].first_lsn > lsn) break;
    Status st = fops_->RemoveFile(segments_[i].path);
    if (!st.ok() && !st.IsNotFound()) {
      // The file may still be on disk: keep it (and its successors) listed
      // so the next checkpoint retries, and surface the I/O error.
      first_error = st;
      break;
    }
    ++dropped;
  }
  // The active (last) segment is droppable too when fully covered and
  // already sealed (writer closed, e.g. right after recovery).
  if (first_error.ok() && segments_.size() == dropped + 1 &&
      writer_ == nullptr && !segments_.empty() && next_lsn_ <= lsn) {
    Status st = fops_->RemoveFile(segments_.back().path);
    if (st.ok() || st.IsNotFound()) {
      ++dropped;
    } else {
      first_error = st;
    }
  }
  segments_.erase(segments_.begin(), segments_.begin() + dropped);
  return first_error;
}

}  // namespace expfinder
