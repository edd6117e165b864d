#include "src/storage/durable_graph.h"

#include <sstream>

#include "src/graph/graph_io.h"
#include "src/util/string_util.h"

namespace expfinder {

namespace {

/// Replay cap mirroring Wal::kMaxRecordBytes: a batch count field larger
/// than any record could physically hold is corruption, not an allocation
/// request.
constexpr int64_t kMaxBatchCount = 64 << 20;

}  // namespace

std::string DurableGraph::EncodeBatch(const UpdateBatch& batch) {
  std::ostringstream os;
  os << "batch " << batch.size() << "\n";
  for (const GraphUpdate& u : batch) {
    os << (u.kind == GraphUpdate::Kind::kInsertEdge ? '+' : '-') << ' ' << u.src
       << ' ' << u.dst << "\n";
  }
  return os.str();
}

std::string DurableGraph::EncodeAddNode(
    NodeId id, std::string_view label,
    const std::vector<std::pair<std::string, AttrValue>>& attrs) {
  std::ostringstream os;
  os << "addnode " << id << " \"" << EscapeQuoted(label) << "\"";
  for (const auto& [key, value] : attrs) {
    os << " " << key << "=" << value.Serialize();
  }
  os << "\n";
  return os.str();
}

Status DurableGraph::ApplyRecord(Graph* g, std::string_view payload) {
  // All or nothing: the record is decoded and checked against `g` in full
  // before the first change, so a replica never publishes, and recovery
  // never keeps, half a record.
  std::istringstream is{std::string(payload)};
  std::string line;
  if (!std::getline(is, line)) return Status::Corruption("empty WAL record");
  auto head = TokenizeRespectingQuotes(Trim(line));
  if (head.empty()) return Status::Corruption("blank WAL record header");

  if (head[0] == "batch") {
    int64_t declared;
    if (head.size() != 2 || !ParseInt64(head[1], &declared) || declared < 0 ||
        declared > kMaxBatchCount) {
      return Status::Corruption("bad batch count in WAL record");
    }
    UpdateBatch batch;
    while (std::getline(is, line)) {
      std::string_view sv = Trim(line);
      if (sv.empty()) continue;
      auto tokens = Split(std::string(sv), ' ');
      int64_t src, dst;
      if (tokens.size() != 3 || (tokens[0] != "+" && tokens[0] != "-") ||
          !ParseInt64(tokens[1], &src) || !ParseInt64(tokens[2], &dst) ||
          src < 0 || dst < 0 || src >= kInvalidNode || dst >= kInvalidNode) {
        return Status::Corruption("bad update line in WAL batch record: " +
                                  std::string(sv));
      }
      NodeId s = static_cast<NodeId>(src), d = static_cast<NodeId>(dst);
      if (!g->IsValidNode(s) || !g->IsValidNode(d)) {
        // The addnode record that created this endpoint is gone.
        return Status::DataLoss("WAL batch references unknown node " +
                                std::to_string(src) + "/" + std::to_string(dst));
      }
      batch.push_back(tokens[0] == "+" ? GraphUpdate::Insert(s, d)
                                       : GraphUpdate::Delete(s, d));
    }
    if (batch.size() != static_cast<size_t>(declared)) {
      return Status::Corruption("WAL batch declared " + std::to_string(declared) +
                                " updates, found " + std::to_string(batch.size()));
    }
    // Every endpoint exists and each edge's presence is tested first, so
    // neither call below can fail.
    for (const GraphUpdate& u : batch) {
      const bool insert = u.kind == GraphUpdate::Kind::kInsertEdge;
      if (insert == g->HasEdge(u.src, u.dst)) continue;  // already applied
      EF_RETURN_NOT_OK(insert ? g->AddEdge(u.src, u.dst) : g->RemoveEdge(u.src, u.dst));
    }
    return Status::OK();
  }

  if (head[0] == "addnode") {
    if (head.size() < 3) return Status::Corruption("short addnode WAL record");
    int64_t id;
    if (!ParseInt64(head[1], &id) || id < 0) {
      return Status::Corruption("bad addnode id in WAL record");
    }
    if (static_cast<size_t>(id) < g->NumNodes()) {
      return Status::OK();  // duplicate replay (checkpoint overlap): skip
    }
    if (static_cast<size_t>(id) > g->NumNodes()) {
      return Status::DataLoss("addnode id gap: record expects " +
                              std::to_string(id) + ", graph has " +
                              std::to_string(g->NumNodes()) + " nodes");
    }
    auto label = ParseAttrValue(head[2]);
    std::string label_str =
        (label && label->is_string()) ? label->AsString() : head[2];
    std::vector<std::pair<std::string, AttrValue>> attrs;
    for (size_t i = 3; i < head.size(); ++i) {
      size_t eq = head[i].find('=');
      if (eq == std::string::npos || eq == 0) {
        return Status::Corruption("bad addnode attribute '" + head[i] + "'");
      }
      auto value = ParseAttrValue(std::string_view(head[i]).substr(eq + 1));
      if (!value) {
        return Status::Corruption("bad addnode attribute value '" + head[i] + "'");
      }
      attrs.emplace_back(head[i].substr(0, eq), std::move(*value));
    }
    NodeId v = g->AddNode(label_str);
    for (auto& [key, value] : attrs) g->SetAttr(v, key, std::move(value));
    return Status::OK();
  }

  return Status::Corruption("unknown WAL record kind '" + head[0] + "'");
}

Result<std::unique_ptr<DurableGraph>> DurableGraph::Open(
    const DurabilityOptions& options, Graph* g, GraphRecoveryInfo* info) {
  *info = GraphRecoveryInfo{};
  FileOps* fops = options.file_ops ? options.file_ops : FileOps::Real();
  EF_RETURN_NOT_OK(fops->CreateDirs(options.dir));

  CheckpointOptions ckpt_options{options.dir, fops, options.keep_checkpoints};
  // This DurableGraph is the directory's one writer: a checkpoint temp here
  // is what a crash mid-write left behind.
  RemoveCheckpointTemps(ckpt_options);
  Graph recovered;
  uint64_t applied_lsn = 0;
  auto checkpoint = ReadLatestCheckpoint(ckpt_options);
  if (checkpoint.ok()) {
    recovered = std::move(checkpoint->graph);
    applied_lsn = checkpoint->applied_lsn;
    info->from_checkpoint = true;
    info->corrupt_checkpoints_skipped = checkpoint->corrupt_skipped;
    if (checkpoint->corrupt_skipped > 0) {
      info->data_loss = true;  // a newer checkpoint existed and is gone
      info->detail += checkpoint->detail;
    }
  } else if (checkpoint.status().IsDataLoss()) {
    // Checkpoints exist but every one is corrupt: degrade to WAL-only
    // replay from an empty graph (below, replay insists the log starts at
    // LSN 0 for that to be sound).
    info->data_loss = true;
    info->detail += checkpoint.status().message() + "; ";
  } else if (!checkpoint.status().IsNotFound()) {
    return checkpoint.status();
  }

  WalOptions wal_options;
  wal_options.dir = options.dir;
  wal_options.file_ops = fops;
  wal_options.fsync_policy = options.fsync_policy;
  wal_options.fsync_interval_ms = options.fsync_interval_ms;
  wal_options.segment_bytes = options.segment_bytes;
  WalRecovery wal_recovery;
  auto wal = Wal::Open(wal_options, &wal_recovery);
  if (!wal.ok()) return wal.status();
  info->tail_truncated = wal_recovery.tail_truncated;
  if (wal_recovery.data_loss) info->data_loss = true;
  if (!wal_recovery.detail.empty()) info->detail += wal_recovery.detail;

  const bool fresh = !info->from_checkpoint && wal_recovery.records.empty() &&
                     !info->data_loss;
  if (fresh) {
    // Nothing durable yet: the caller's graph is the initial state; make
    // it durable immediately so a crash before the first mutation still
    // recovers it.
    EF_RETURN_NOT_OK(WriteCheckpoint(ckpt_options, *g, wal_recovery.next_lsn));
  } else {
    // Replaying into an empty graph is only sound from the very first
    // record: a WAL that was truncated up to a checkpoint which then went
    // missing starts past LSN 0, and its records assume state we no longer
    // have.
    if (!info->from_checkpoint && !wal_recovery.records.empty() &&
        wal_recovery.records.front().lsn > applied_lsn) {
      info->data_loss = true;
      info->detail += "WAL starts at LSN " +
                      std::to_string(wal_recovery.records.front().lsn) +
                      " with no checkpoint to anchor it; ";
      wal_recovery.records.clear();
    }
    // Replay the records past the checkpoint. Records below applied_lsn
    // are stale duplicates (crash between checkpoint and truncation) and
    // are skipped; a record ABOVE the running watermark means the ones
    // between it and the recovered state are gone (e.g. the checkpoint that
    // covered them was corrupt and recovery fell back past them) — applying
    // it to older state could "succeed" into a graph that matches no serial
    // prefix, so replay stops at the last consistent prefix instead.
    uint64_t watermark = applied_lsn;
    for (const WalRecord& record : wal_recovery.records) {
      if (record.lsn < watermark) {
        ++info->skipped_records;
        continue;
      }
      if (record.lsn > watermark) {
        info->data_loss = true;
        info->detail += "LSN gap: state is at " + std::to_string(watermark) +
                        ", next WAL record is " + std::to_string(record.lsn) +
                        "; ";
        break;
      }
      Status st = ApplyRecord(&recovered, record.payload);
      if (!st.ok()) {
        info->data_loss = true;
        info->detail += "replay stopped at LSN " + std::to_string(record.lsn) +
                        ": " + st.message() + "; ";
        break;
      }
      ++watermark;
      ++info->replayed_records;
    }
    *g = std::move(recovered);
  }

  std::unique_ptr<DurableGraph> durable(new DurableGraph(options, fops));
  durable->wal_ = std::move(wal).value();
  durable->last_checkpoint_lsn_ = fresh ? wal_recovery.next_lsn : applied_lsn;
  return durable;
}

Status DurableGraph::AppendRecord(const std::string& payload) {
  std::lock_guard<std::mutex> lock(mu_);
  if (sealed_) {
    return Status::IOError(
        "WAL sealed after an earlier record failed to enter the log; "
        "mutation applied in memory only");
  }
  const uint64_t before = wal_->next_lsn();
  auto lsn = wal_->Append(payload);
  if (!lsn.ok()) {
    if (wal_->next_lsn() == before) {
      // The record never made it into the log (vs. appended-but-unsynced,
      // where the LSN advanced): the applied history and the log have
      // diverged, and any later append would make the log a non-prefix of
      // it. Seal — callers degrade to memory-only from here.
      sealed_ = true;
    }
    return lsn.status();
  }
  return Status::OK();
}

bool DurableGraph::CheckpointDue() const {
  if (options_.checkpoint_every_n_batches == 0) return false;
  std::lock_guard<std::mutex> lock(mu_);
  return wal_->next_lsn() - last_checkpoint_lsn_ >=
         options_.checkpoint_every_n_batches;
}

Status DurableGraph::Checkpoint(const Graph& g, uint64_t applied_lsn) {
  // One checkpoint writer at a time; serialization and the file write run
  // outside mu_ so concurrent appends are never stalled behind them.
  std::lock_guard<std::mutex> ckpt(checkpoint_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (sealed_) {
      // `g` holds mutations the log never received; persisting it would
      // smuggle them past the prefix guarantee.
      return Status::IOError("WAL sealed; refusing to checkpoint diverged state");
    }
    if (applied_lsn <= last_checkpoint_lsn_) {
      return Status::OK();  // an equal-or-newer checkpoint already landed
    }
  }
  CheckpointOptions ckpt_options{options_.dir, fops_, options_.keep_checkpoints};
  EF_RETURN_NOT_OK(WriteCheckpoint(ckpt_options, g, applied_lsn));
  std::lock_guard<std::mutex> lock(mu_);
  last_checkpoint_lsn_ = applied_lsn;
  if (wal_->next_lsn() <= applied_lsn) {
    // Everything logged so far is covered: seal the active segment so it
    // can be dropped too (the next append starts fresh).
    wal_->Rotate();
  }
  return wal_->TruncateBefore(applied_lsn);
}

uint64_t DurableGraph::next_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return wal_->next_lsn();
}

size_t DurableGraph::wal_segments() const {
  std::lock_guard<std::mutex> lock(mu_);
  return wal_->NumSegments();
}

}  // namespace expfinder
