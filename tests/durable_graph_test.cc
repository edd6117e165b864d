// DurableGraph: recovery == the serial replay oracle, checkpoint + WAL
// truncation, corrupt-checkpoint fallback, the sweep of crashed checkpoint
// temps, duplicate-replay idempotence, and the record codec itself (each
// record applies all or nothing).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/graph/graph_io.h"
#include "src/incremental/update.h"
#include "src/storage/checkpoint.h"
#include "src/storage/durable_graph.h"
#include "src/storage/fault_env.h"
#include "src/util/crc32c.h"
#include "src/util/random.h"
#include "src/util/string_util.h"

namespace expfinder {
namespace {

std::string GraphText(const Graph& g) {
  std::ostringstream os;
  EXPECT_TRUE(SaveGraphText(g, os).ok());
  return os.str();
}

Graph MakeBase() {
  Graph g;
  NodeId a = g.AddNode("A");
  NodeId b = g.AddNode("B");
  NodeId c = g.AddNode("C");
  EXPECT_TRUE(g.AddEdge(a, b).ok());
  EXPECT_TRUE(g.AddEdge(b, c).ok());
  g.SetAttr(a, "name", AttrValue("alpha"));
  return g;
}

class DurableGraphFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/durable_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);  // stale state from a previous run
  }

  DurabilityOptions Options() {
    DurabilityOptions o;
    o.dir = dir_;
    o.checkpoint_every_n_batches = 0;  // explicit checkpoints only
    return o;
  }

  std::string dir_;
};

TEST_F(DurableGraphFixture, FreshDirMakesSeedGraphDurable) {
  Graph seed = MakeBase();
  const std::string want = GraphText(seed);
  {
    GraphRecoveryInfo info;
    auto d = DurableGraph::Open(Options(), &seed, &info);
    ASSERT_TRUE(d.ok()) << d.status();
    EXPECT_FALSE(info.from_checkpoint);
    EXPECT_FALSE(info.data_loss);
  }
  // A reboot with an empty graph recovers the seed from its initial
  // checkpoint.
  Graph recovered;
  GraphRecoveryInfo info;
  auto d = DurableGraph::Open(Options(), &recovered, &info);
  ASSERT_TRUE(d.ok()) << d.status();
  EXPECT_TRUE(info.from_checkpoint);
  EXPECT_EQ(GraphText(recovered), want);
}

TEST_F(DurableGraphFixture, RecoveryEqualsSerialReplayOracle) {
  Graph oracle = MakeBase();
  {
    Graph g = MakeBase();
    GraphRecoveryInfo info;
    auto d = DurableGraph::Open(Options(), &g, &info);
    ASSERT_TRUE(d.ok()) << d.status();

    UpdateBatch b1 = {GraphUpdate::Insert(0, 2), GraphUpdate::Delete(0, 1)};
    ASSERT_TRUE(ApplyBatch(&oracle, b1).ok());
    ASSERT_TRUE((*d)->LogBatch(b1).ok());

    NodeId id = oracle.AddNode("D");
    oracle.SetAttr(id, "years", AttrValue(int64_t{7}));
    ASSERT_TRUE((*d)->AppendRecord(DurableGraph::EncodeAddNode(
                                       id, "D", {{"years", AttrValue(int64_t{7})}}))
                    .ok());

    UpdateBatch b2 = {GraphUpdate::Insert(2, static_cast<NodeId>(id))};
    ASSERT_TRUE(ApplyBatch(&oracle, b2).ok());
    ASSERT_TRUE((*d)->LogBatch(b2).ok());
    EXPECT_EQ((*d)->next_lsn(), 3u);
  }
  Graph recovered;
  GraphRecoveryInfo info;
  auto d = DurableGraph::Open(Options(), &recovered, &info);
  ASSERT_TRUE(d.ok()) << d.status();
  EXPECT_EQ(info.replayed_records, 3u);
  EXPECT_FALSE(info.data_loss);
  EXPECT_EQ(GraphText(recovered), GraphText(oracle));
}

TEST_F(DurableGraphFixture, CheckpointTruncatesCoveredWal) {
  Graph oracle = MakeBase();
  DurabilityOptions o = Options();
  o.segment_bytes = 32;  // force rotation so truncation has segments to drop
  {
    Graph g = MakeBase();
    GraphRecoveryInfo info;
    auto d = DurableGraph::Open(o, &g, &info);
    ASSERT_TRUE(d.ok());
    for (int i = 0; i < 6; ++i) {
      UpdateBatch b = {i % 2 == 0 ? GraphUpdate::Insert(0, 2)
                                  : GraphUpdate::Delete(0, 2)};
      ASSERT_TRUE(ApplyBatch(&oracle, b).ok());
      ASSERT_TRUE((*d)->LogBatch(b).ok());
    }
    const size_t before = (*d)->wal_segments();
    ASSERT_TRUE((*d)->Checkpoint(oracle, (*d)->next_lsn()).ok());
    EXPECT_LT((*d)->wal_segments(), before);
  }
  Graph recovered;
  GraphRecoveryInfo info;
  auto d = DurableGraph::Open(o, &recovered, &info);
  ASSERT_TRUE(d.ok()) << d.status();
  EXPECT_TRUE(info.from_checkpoint);
  EXPECT_EQ(info.replayed_records, 0u);  // everything folded in
  EXPECT_FALSE(info.data_loss);
  EXPECT_EQ(GraphText(recovered), GraphText(oracle));
}

TEST_F(DurableGraphFixture, CheckpointThenCrashBeforeTruncateReplaysOnce) {
  // A checkpoint that lands but whose WAL truncation never happens (crash
  // in the window) leaves records covered by BOTH: replay must skip them.
  Graph oracle = MakeBase();
  {
    Graph g = MakeBase();
    GraphRecoveryInfo info;
    auto d = DurableGraph::Open(Options(), &g, &info);
    ASSERT_TRUE(d.ok());
    UpdateBatch b1 = {GraphUpdate::Insert(0, 2)};
    ASSERT_TRUE(ApplyBatch(&oracle, b1).ok());
    ASSERT_TRUE((*d)->LogBatch(b1).ok());
    // Checkpoint written directly — bypassing DurableGraph::Checkpoint so
    // the WAL keeps records 0..; exactly the crash-in-the-window state.
    CheckpointOptions co;
    co.dir = dir_;
    ASSERT_TRUE(WriteCheckpoint(co, oracle, (*d)->next_lsn()).ok());
    UpdateBatch b2 = {GraphUpdate::Delete(1, 2)};
    ASSERT_TRUE(ApplyBatch(&oracle, b2).ok());
    ASSERT_TRUE((*d)->LogBatch(b2).ok());
  }
  Graph recovered;
  GraphRecoveryInfo info;
  auto d = DurableGraph::Open(Options(), &recovered, &info);
  ASSERT_TRUE(d.ok()) << d.status();
  EXPECT_TRUE(info.from_checkpoint);
  EXPECT_EQ(info.skipped_records, 1u);   // batch b1: already in the checkpoint
  EXPECT_EQ(info.replayed_records, 1u);  // batch b2
  EXPECT_FALSE(info.data_loss);
  EXPECT_EQ(GraphText(recovered), GraphText(oracle));
}

TEST_F(DurableGraphFixture, CorruptNewestCheckpointFallsBackToOlder) {
  Graph oracle = MakeBase();
  {
    Graph g = MakeBase();
    GraphRecoveryInfo info;
    auto d = DurableGraph::Open(Options(), &g, &info);
    ASSERT_TRUE(d.ok());
    UpdateBatch b = {GraphUpdate::Insert(0, 2)};
    ASSERT_TRUE(ApplyBatch(&oracle, b).ok());
    ASSERT_TRUE((*d)->LogBatch(b).ok());
    ASSERT_TRUE((*d)->Checkpoint(oracle, (*d)->next_lsn()).ok());
  }
  // Corrupt the newest checkpoint file in place.
  auto names = FileOps::Real()->ListDir(dir_);
  ASSERT_TRUE(names.ok());
  std::string newest;
  for (const auto& n : *names) {
    if (n.rfind("ckpt-", 0) == 0 && n > newest) newest = n;
  }
  ASSERT_FALSE(newest.empty());
  auto f = FileOps::Real()->NewWritableFile(dir_ + "/" + newest, false);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE((*f)->Append("garbage trailing bytes\n").ok());
  ASSERT_TRUE((*f)->Close().ok());

  Graph recovered;
  GraphRecoveryInfo info;
  auto d = DurableGraph::Open(Options(), &recovered, &info);
  ASSERT_TRUE(d.ok()) << d.status();
  EXPECT_EQ(info.corrupt_checkpoints_skipped, 1u);
  // The older (initial) checkpoint anchors recovery; the WAL record was
  // truncated away by the newer checkpoint, so the graph may legitimately
  // be either prefix — but recovery must not crash and must flag the loss
  // if records are missing.
  EXPECT_TRUE(info.from_checkpoint || info.data_loss);
}

TEST_F(DurableGraphFixture, V1CheckpointIsCorruptAndRecoveryFallsBackToV2) {
  // The v1 format (no graph_version line) is retired: a newer v1 file is
  // skipped as corrupt even though its CRC is valid, and recovery anchors
  // on the older v2 checkpoint with its version counter.
  Graph g = MakeBase();
  ASSERT_TRUE(g.RemoveEdge(0, 1).ok());  // a counter no parse re-derives
  CheckpointOptions co;
  co.dir = dir_;
  ASSERT_TRUE(WriteCheckpoint(co, g, 3).ok());

  std::ostringstream body;
  body << "# expfinder checkpoint v1\napplied_lsn 9\n";
  ASSERT_TRUE(SaveGraphText(g, body).ok());
  char crc[16];
  std::snprintf(crc, sizeof(crc), "%08x", Crc32c(body.str()));
  auto f = FileOps::Real()->NewWritableFile(dir_ + "/ckpt-0000000000000009.ckpt",
                                            /*truncate=*/true);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE((*f)->Append(std::string("# checksum crc32c:") + crc + "\n").ok());
  ASSERT_TRUE((*f)->Append(body.str()).ok());
  ASSERT_TRUE((*f)->Close().ok());

  auto recovered = ReadLatestCheckpoint(co);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered->corrupt_skipped, 1u);
  EXPECT_EQ(recovered->applied_lsn, 3u);
  EXPECT_EQ(recovered->graph.version(), g.version());
  EXPECT_EQ(GraphText(recovered->graph), GraphText(g));
}

TEST_F(DurableGraphFixture, AllCheckpointsCorruptDegradesWithoutAborting) {
  {
    Graph g = MakeBase();
    GraphRecoveryInfo info;
    auto d = DurableGraph::Open(Options(), &g, &info);
    ASSERT_TRUE(d.ok());
  }
  auto names = FileOps::Real()->ListDir(dir_);
  ASSERT_TRUE(names.ok());
  for (const auto& n : *names) {
    if (n.rfind("ckpt-", 0) != 0) continue;
    auto f = FileOps::Real()->NewWritableFile(dir_ + "/" + n, true);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Append("# checksum crc32c:00000000\nnot a checkpoint\n").ok());
    ASSERT_TRUE((*f)->Close().ok());
  }
  Graph recovered;
  GraphRecoveryInfo info;
  auto d = DurableGraph::Open(Options(), &recovered, &info);
  ASSERT_TRUE(d.ok()) << d.status();  // degrades, never fails
  EXPECT_TRUE(info.data_loss);
}

TEST_F(DurableGraphFixture, OpenRemovesStrayCheckpointTemps) {
  Graph oracle = MakeBase();
  {
    Graph g = MakeBase();
    GraphRecoveryInfo info;
    auto d = DurableGraph::Open(Options(), &g, &info);
    ASSERT_TRUE(d.ok()) << d.status();
    UpdateBatch b = {GraphUpdate::Insert(0, 2)};
    ASSERT_TRUE(ApplyBatch(&oracle, b).ok());
    ASSERT_TRUE((*d)->LogBatch(b).ok());
  }
  // A crash between creating a checkpoint's temp and renaming it leaves the
  // first; the others are not checkpoint temps and must stay.
  const std::string stray = "ckpt-0000000000000001.ckpt.tmp.4242.0";
  const std::vector<std::string> kept = {"notes.txt", "ckpt-zz.ckpt.tmp.1.0",
                                         "fig1.graph.tmp.1.0"};
  for (const std::string& name : kept) {
    auto f = FileOps::Real()->NewWritableFile(dir_ + "/" + name, /*truncate=*/true);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Append("half written").ok());
    ASSERT_TRUE((*f)->Close().ok());
  }
  auto f = FileOps::Real()->NewWritableFile(dir_ + "/" + stray, /*truncate=*/true);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE((*f)->Append("# checksum crc32c:00000000\n# expfinder chec").ok());
  ASSERT_TRUE((*f)->Close().ok());

  Graph recovered;
  GraphRecoveryInfo info;
  auto d = DurableGraph::Open(Options(), &recovered, &info);
  ASSERT_TRUE(d.ok()) << d.status();
  auto names = FileOps::Real()->ListDir(dir_);
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(std::count(names->begin(), names->end(), stray), 0);
  for (const std::string& name : kept) {
    EXPECT_EQ(std::count(names->begin(), names->end(), name), 1) << name;
  }
  EXPECT_TRUE(info.from_checkpoint);
  EXPECT_EQ(info.replayed_records, 1u);
  EXPECT_FALSE(info.data_loss);
  EXPECT_EQ(GraphText(recovered), GraphText(oracle));
}

// --- Record codec ----------------------------------------------------------

TEST(DurableRecordCodecTest, BatchRoundTrip) {
  UpdateBatch batch = {GraphUpdate::Insert(0, 1), GraphUpdate::Delete(1, 2),
                       GraphUpdate::Insert(2, 0)};
  Graph g;
  g.AddNode("A");
  g.AddNode("B");
  g.AddNode("C");
  ASSERT_TRUE(g.AddEdge(1, 2).ok());
  Graph oracle = g;
  ASSERT_TRUE(ApplyBatch(&oracle, batch).ok());
  ASSERT_TRUE(DurableGraph::ApplyRecord(&g, DurableGraph::EncodeBatch(batch)).ok());
  EXPECT_EQ(GraphText(g), GraphText(oracle));
}

TEST(DurableRecordCodecTest, AddNodeRoundTripWithQuotedLabelAndAttrs) {
  Graph g;
  g.AddNode("seed");
  std::vector<std::pair<std::string, AttrValue>> attrs = {
      {"name", AttrValue("Ada \"the\" Analyst")},
      {"years", AttrValue(int64_t{12})},
      {"score", AttrValue(2.5)},
  };
  std::string rec = DurableGraph::EncodeAddNode(1, "HR dept", attrs);
  ASSERT_TRUE(DurableGraph::ApplyRecord(&g, rec).ok());
  ASSERT_EQ(g.NumNodes(), 2u);
  EXPECT_EQ(g.NodeLabelName(1), "HR dept");
  const AttrValue* name = g.GetAttr(1, "name");
  ASSERT_NE(name, nullptr);
  EXPECT_EQ(name->AsString(), "Ada \"the\" Analyst");
  const AttrValue* years = g.GetAttr(1, "years");
  ASSERT_NE(years, nullptr);
  EXPECT_EQ(years->AsInt(), 12);
}

TEST(DurableRecordCodecTest, ReplayIsIdempotent) {
  Graph g;
  g.AddNode("A");
  g.AddNode("B");
  UpdateBatch batch = {GraphUpdate::Insert(0, 1)};
  std::string rec = DurableGraph::EncodeBatch(batch);
  ASSERT_TRUE(DurableGraph::ApplyRecord(&g, rec).ok());
  ASSERT_TRUE(DurableGraph::ApplyRecord(&g, rec).ok());  // insert-existing: skip
  EXPECT_EQ(g.NumEdges(), 1u);

  std::string del = DurableGraph::EncodeBatch({GraphUpdate::Delete(0, 1)});
  ASSERT_TRUE(DurableGraph::ApplyRecord(&g, del).ok());
  ASSERT_TRUE(DurableGraph::ApplyRecord(&g, del).ok());  // delete-missing: skip
  EXPECT_EQ(g.NumEdges(), 0u);

  std::string add = DurableGraph::EncodeAddNode(2, "C", {});
  ASSERT_TRUE(DurableGraph::ApplyRecord(&g, add).ok());
  ASSERT_TRUE(DurableGraph::ApplyRecord(&g, add).ok());  // id < NumNodes: skip
  EXPECT_EQ(g.NumNodes(), 3u);
}

TEST(DurableRecordCodecTest, InconsistentRecordsAreDataLoss) {
  Graph g;
  g.AddNode("A");
  // Endpoint beyond NumNodes: an addnode record before this one is gone.
  std::string bad_edge = DurableGraph::EncodeBatch({GraphUpdate::Insert(0, 9)});
  EXPECT_TRUE(DurableGraph::ApplyRecord(&g, bad_edge).IsDataLoss());
  // NodeId gap: node 5 added to a 1-node graph.
  std::string gap = DurableGraph::EncodeAddNode(5, "X", {});
  EXPECT_TRUE(DurableGraph::ApplyRecord(&g, gap).IsDataLoss());
}

TEST(DurableRecordCodecTest, GarbagePayloadIsCorruption) {
  Graph g;
  g.AddNode("A");
  g.AddNode("B");
  EXPECT_TRUE(DurableGraph::ApplyRecord(&g, "not a record").IsCorruption());
  EXPECT_TRUE(DurableGraph::ApplyRecord(&g, "batch nope").IsCorruption());
  EXPECT_TRUE(DurableGraph::ApplyRecord(&g, "batch 1\n* 0 0").IsCorruption());
  EXPECT_TRUE(DurableGraph::ApplyRecord(&g, "addnode").IsCorruption());
  // An endpoint that does not fit 32 bits (it would truncate to node 0).
  EXPECT_TRUE(DurableGraph::ApplyRecord(&g, "batch 1\n+ 4294967296 1").IsCorruption());
  EXPECT_EQ(g.NumEdges(), 0u);
}

/// A valid record for `g`: a batch that inserts absent and deletes present
/// edges, or the next node with a quoted label and attributes.
std::string ValidRecord(const Graph& g, Rng& rng) {
  if (rng.NextBool()) {
    UpdateBatch batch;
    const size_t n = 2 + rng.NextBounded(5);
    for (size_t i = 0; i < n; ++i) {
      const auto s = static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
      const auto d = static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
      batch.push_back(g.HasEdge(s, d) ? GraphUpdate::Delete(s, d)
                                      : GraphUpdate::Insert(s, d));
    }
    return DurableGraph::EncodeBatch(batch);
  }
  return DurableGraph::EncodeAddNode(
      static_cast<NodeId>(g.NumNodes()), "New \"hire\"",
      {{"name", AttrValue("Ada \"the\" Analyst")},
       {"years", AttrValue(int64_t{3})},
       {"score", AttrValue(1.5)}});
}

/// One random corruption of `record`: a bit flip, a truncation, a duplicated
/// or dropped line, a huge count or id, or a broken quote.
std::string MutateRecord(std::string record, Rng& rng) {
  static const char* const kHuge[] = {"4294967295", "4294967296", "67108865",
                                      "9223372036854775807", "99999999999999999999",
                                      "-1"};
  std::vector<std::string> lines = Split(record, '\n');
  const size_t line = rng.NextBounded(lines.size());
  const uint64_t kind = rng.NextBounded(7);
  switch (kind) {
    case 0: {
      const size_t pos = rng.NextBounded(record.size());
      record[pos] = static_cast<char>(record[pos] ^ (1 << rng.NextBounded(8)));
      return record;
    }
    case 1:
      record.resize(rng.NextBounded(record.size()));
      return record;
    case 2:
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(line), lines[line]);
      return Join(lines, "\n");
    case 3:
      lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(line));
      return Join(lines, "\n");
    case 4:
    case 5: {
      // A huge value for the header's count or id (4), or for one of the
      // first two numbers on any line (5).
      std::string& target = lines[kind == 4 ? 0 : line];
      std::vector<std::string> tokens = Split(target, ' ');
      if (tokens.size() < 2) return record;
      tokens[1 + rng.NextBounded(std::min<size_t>(2, tokens.size() - 1))] =
          kHuge[rng.NextBounded(std::size(kHuge))];
      target = Join(tokens, " ");
      return Join(lines, "\n");
    }
    default: {
      const size_t quote = record.find('"', rng.NextBounded(record.size()));
      if (quote != std::string::npos && rng.NextBool()) {
        record.erase(quote, 1);
      } else {
        record.insert(rng.NextBounded(record.size()), 1, '"');
      }
      return record;
    }
  }
}

TEST(DurableRecordCodecTest, MutatedRecordsApplyAllOrNothing) {
  // Every call returns a Status, and one that fails leaves the graph and
  // its version exactly as they were: a replica publishes, and recovery
  // keeps, only whole records.
  Graph base;
  for (int i = 0; i < 8; ++i) base.AddNode(i % 2 == 0 ? "A" : "B");
  for (NodeId v = 0; v < 8; ++v) ASSERT_TRUE(base.AddEdge(v, (v + 1) % 8).ok());
  base.SetAttr(0, "name", AttrValue("alpha"));
  const std::string base_text = GraphText(base);
  size_t failed = 0;
  size_t applied = 0;
  for (uint64_t seed : {11, 12, 13, 14}) {
    Rng rng(seed);
    for (int iter = 0; iter < 400; ++iter) {
      const std::string record = MutateRecord(ValidRecord(base, rng), rng);
      Graph g = base;
      const Status st = DurableGraph::ApplyRecord(&g, record);
      if (st.ok()) {
        ++applied;
        continue;
      }
      ++failed;
      EXPECT_EQ(g.version(), base.version()) << st << "\n" << record;
      EXPECT_EQ(GraphText(g), base_text) << st << "\n" << record;
    }
  }
  // Both outcomes occur: the sweep is not vacuous on either side.
  EXPECT_GT(failed, 400u);
  EXPECT_GT(applied, 100u);
}

}  // namespace
}  // namespace expfinder
