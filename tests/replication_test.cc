// The replication subsystem (ISSUE 9): the WAL-tailed delta stream, the
// replica + fleet machinery, and the service's routed-read integration.
//
// The correctness bar, bottom to top:
//   * Wal::TailFrom returns exactly the records past the cursor, in LSN
//     order, tolerating live appends, rotation, truncation (lost prefix)
//     and torn tails.
//   * Checkpoints round-trip the graph's version counter (v2), so a
//     replica bootstrapped from one shares the primary's numbering.
//   * A replica replaying shipped deltas converges on a graph that is
//     bit-identical to the primary's — same serialized text, same version.
//   * The fleet routes reads only to alive, version-satisfying replicas,
//     and a killed replica re-bootstraps and catches up after restart.
//   * Service-routed reads are oracle-exact: every response's relation
//     equals a serial replay of the same batches at exactly the version
//     the response reports (the randomized sweep at the bottom, run under
//     TSan in CI).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/engine/eval_core.h"
#include "src/generator/generators.h"
#include "src/graph/graph_io.h"
#include "src/incremental/update.h"
#include "src/index/topic_index.h"
#include "src/matching/bounded_simulation.h"
#include "src/replication/delta.h"
#include "src/replication/fleet.h"
#include "src/replication/replica.h"
#include "src/service/expfinder_service.h"
#include "src/storage/checkpoint.h"
#include "src/storage/durable_graph.h"
#include "src/storage/wal.h"
#include "src/util/random.h"

namespace expfinder {
namespace {

std::string GraphText(const Graph& g) {
  std::ostringstream os;
  EXPECT_TRUE(SaveGraphText(g, os).ok());
  return os.str();
}

bool WaitFor(const std::function<bool()>& pred, double timeout_ms) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(static_cast<int64_t>(timeout_ms));
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

class ReplicationFixture : public ::testing::Test {
 protected:
  // A fresh directory per test, derived from the test name.
  std::string FreshDir() {
    std::string dir =
        ::testing::TempDir() + "/replication_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
  }

  std::vector<std::string> SegmentFiles(const std::string& dir) {
    std::vector<std::string> segs;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      std::string n = entry.path().filename().string();
      if (n.rfind("wal-", 0) == 0) segs.push_back(entry.path().string());
    }
    std::sort(segs.begin(), segs.end());
    return segs;
  }

  void AppendRawToNewestSegment(const std::string& dir, std::string_view raw) {
    auto segs = SegmentFiles(dir);
    ASSERT_FALSE(segs.empty());
    std::ofstream os(segs.back(), std::ios::binary | std::ios::app);
    os.write(raw.data(), static_cast<std::streamsize>(raw.size()));
  }
};

// ---------------------------------------------------------------------------
// Wal::TailFrom — the transport-neutral catch-up feed (satellite a).
// ---------------------------------------------------------------------------

TEST_F(ReplicationFixture, WalTailFromReturnsExactlyPostCursorRecords) {
  std::string dir = FreshDir();
  WalOptions o;
  o.dir = dir;
  WalRecovery rec;
  auto wal = Wal::Open(o, &rec);
  ASSERT_TRUE(wal.ok()) << wal.status();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE((*wal)->Append("rec-" + std::to_string(i)).ok());
  }

  auto tail = Wal::TailFrom(dir, nullptr, 4, 100);
  ASSERT_TRUE(tail.ok()) << tail.status();
  EXPECT_FALSE(tail->lost_prefix);
  ASSERT_EQ(tail->records.size(), 6u);
  for (size_t i = 0; i < tail->records.size(); ++i) {
    EXPECT_EQ(tail->records[i].lsn, 4 + i);
    EXPECT_EQ(tail->records[i].payload, "rec-" + std::to_string(4 + i));
  }
  EXPECT_EQ(tail->next_lsn, 10u);

  // At the horizon: nothing, cursor unchanged.
  auto at_end = Wal::TailFrom(dir, nullptr, 10, 100);
  ASSERT_TRUE(at_end.ok());
  EXPECT_TRUE(at_end->records.empty());
  EXPECT_EQ(at_end->next_lsn, 10u);
  EXPECT_FALSE(at_end->lost_prefix);

  // max_records caps the run but keeps it contiguous from the cursor.
  auto capped = Wal::TailFrom(dir, nullptr, 0, 3);
  ASSERT_TRUE(capped.ok());
  ASSERT_EQ(capped->records.size(), 3u);
  EXPECT_EQ(capped->records[0].lsn, 0u);
  EXPECT_EQ(capped->next_lsn, 3u);
}

TEST_F(ReplicationFixture, WalTailSeesLiveAppendsInOrder) {
  std::string dir = FreshDir();
  WalOptions o;
  o.dir = dir;
  WalRecovery rec;
  auto wal = Wal::Open(o, &rec);
  ASSERT_TRUE(wal.ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE((*wal)->Append("live-" + std::to_string(i)).ok());
  }

  // A reader polls the directory from its cursor, with no handle on the
  // appending Wal.
  auto first = Wal::TailFrom(dir, nullptr, 0, 100);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_EQ(first->records.size(), 3u);
  EXPECT_EQ(first->next_lsn, 3u);

  // Appends racing a live tail: the next poll sees exactly the new run.
  ASSERT_TRUE((*wal)->Append("live-3").ok());
  ASSERT_TRUE((*wal)->Append("live-4").ok());
  auto second = Wal::TailFrom(dir, nullptr, first->next_lsn, 100);
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->records.size(), 2u);
  EXPECT_EQ(second->records[0].lsn, 3u);
  EXPECT_EQ(second->records[0].payload, "live-3");
  EXPECT_EQ(second->records[1].lsn, 4u);
  EXPECT_FALSE(second->lost_prefix);

  auto third = Wal::TailFrom(dir, nullptr, second->next_lsn, 100);
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE(third->records.empty());
  EXPECT_EQ(third->next_lsn, 5u);
}

TEST_F(ReplicationFixture, WalTailAcrossSegmentsFromMidCursor) {
  std::string dir = FreshDir();
  WalOptions o;
  o.dir = dir;
  // One record per segment: tailing must stitch the rotation back together.
  o.segment_bytes = EncodeWalRecord("payload-00").size();
  WalRecovery rec;
  auto wal = Wal::Open(o, &rec);
  ASSERT_TRUE(wal.ok());
  for (int i = 0; i < 12; ++i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "payload-%02d", i);
    ASSERT_TRUE((*wal)->Append(buf).ok());
  }
  ASSERT_GT(SegmentFiles(dir).size(), 4u);

  auto tail = Wal::TailFrom(dir, nullptr, 7, 100);
  ASSERT_TRUE(tail.ok());
  EXPECT_FALSE(tail->lost_prefix);
  ASSERT_EQ(tail->records.size(), 5u);
  for (size_t i = 0; i < tail->records.size(); ++i) {
    EXPECT_EQ(tail->records[i].lsn, 7 + i);
  }
  EXPECT_EQ(tail->next_lsn, 12u);
}

TEST_F(ReplicationFixture, WalTailReportsLostPrefixAfterTruncation) {
  std::string dir = FreshDir();
  WalOptions o;
  o.dir = dir;
  o.segment_bytes = EncodeWalRecord("payload-00").size();
  WalRecovery rec;
  auto wal = Wal::Open(o, &rec);
  ASSERT_TRUE(wal.ok());
  for (int i = 0; i < 9; ++i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "payload-%02d", i);
    ASSERT_TRUE((*wal)->Append(buf).ok());
  }

  // Drop the two oldest segments, as checkpoint truncation would.
  auto segs = SegmentFiles(dir);
  ASSERT_GT(segs.size(), 3u);
  std::filesystem::remove(segs[0]);
  std::filesystem::remove(segs[1]);

  auto tail = Wal::TailFrom(dir, nullptr, 0, 100);
  ASSERT_TRUE(tail.ok());
  EXPECT_TRUE(tail->lost_prefix);  // cursor 0 is below the surviving log
  ASSERT_FALSE(tail->records.empty());
  uint64_t first_surviving = tail->records.front().lsn;
  EXPECT_GT(first_surviving, 0u);
  EXPECT_EQ(tail->next_lsn, 9u);

  // From the surviving prefix onward, tailing is clean again.
  auto re_anchored = Wal::TailFrom(dir, nullptr, first_surviving, 100);
  ASSERT_TRUE(re_anchored.ok());
  EXPECT_FALSE(re_anchored->lost_prefix);
  EXPECT_EQ(re_anchored->records.size(), 9 - first_surviving);
}

TEST_F(ReplicationFixture, WalTailStopsCleanlyAtTornFrame) {
  std::string dir = FreshDir();
  WalOptions o;
  o.dir = dir;
  WalRecovery rec;
  auto wal = Wal::Open(o, &rec);
  ASSERT_TRUE(wal.ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE((*wal)->Append("rec-" + std::to_string(i)).ok());
  }
  // A torn frame at the tail (crashed writer): the tail reader stops at
  // the last whole record without error — exactly like crash recovery.
  std::string frame = EncodeWalRecord("torn-record");
  AppendRawToNewestSegment(dir, frame.substr(0, 6));

  auto tail = Wal::TailFrom(dir, nullptr, 0, 100);
  ASSERT_TRUE(tail.ok()) << tail.status();
  EXPECT_EQ(tail->records.size(), 5u);
  EXPECT_EQ(tail->next_lsn, 5u);
  EXPECT_FALSE(tail->lost_prefix);
}

// ---------------------------------------------------------------------------
// Checkpoint v2: the graph version counter rides along, so bootstrap
// anchors a replica to the primary's version numbering.
// ---------------------------------------------------------------------------

TEST_F(ReplicationFixture, CheckpointRoundTripsGraphVersion) {
  std::string dir = FreshDir();
  Graph g;
  NodeId a = g.AddNode("HR");
  NodeId b = g.AddNode("SE");
  ASSERT_TRUE(g.AddEdge(a, b).ok());
  // A remove makes the counter diverge from anything a parser could
  // re-derive from the surviving nodes and edges.
  ASSERT_TRUE(g.RemoveEdge(a, b).ok());
  ASSERT_TRUE(g.AddEdge(b, a).ok());
  uint64_t version = g.version();

  CheckpointOptions copts;
  copts.dir = dir;
  ASSERT_TRUE(WriteCheckpoint(copts, g, 7).ok());
  auto recovered = ReadLatestCheckpoint(copts);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered->applied_lsn, 7u);
  EXPECT_EQ(recovered->graph.version(), version);
  EXPECT_EQ(GraphText(recovered->graph), GraphText(g));
}

TEST_F(ReplicationFixture, LoadReplicaBootstrapPrefersNewestCheckpoint) {
  std::string dir = FreshDir();
  // No checkpoint at all: the caller must fall back to a snapshot install.
  auto missing = LoadReplicaBootstrap(dir, nullptr);
  EXPECT_FALSE(missing.ok());
  EXPECT_TRUE(missing.status().IsNotFound()) << missing.status();

  Graph g = gen::BuildFig1Graph();
  CheckpointOptions copts;
  copts.dir = dir;
  ASSERT_TRUE(WriteCheckpoint(copts, g, 9).ok());
  auto bootstrap = LoadReplicaBootstrap(dir, nullptr);
  ASSERT_TRUE(bootstrap.ok()) << bootstrap.status();
  EXPECT_EQ(bootstrap->next_lsn, 9u);
  EXPECT_EQ(bootstrap->graph.version(), g.version());
  EXPECT_EQ(GraphText(bootstrap->graph), GraphText(g));
}

TEST_F(ReplicationFixture, DurableRecoveryPreservesVersionNumbering) {
  std::string dir = FreshDir();
  ServiceOptions opts;
  opts.durability.dir = dir;
  opts.durability.background_checkpoints = false;
  opts.durability.checkpoint_every_n_batches = 0;

  uint64_t version;
  std::string text;
  {
    Graph g = gen::BuildFig1Graph();
    ExpFinderService service(&g, opts);
    ASSERT_TRUE(service.durable());
    // Insert + remove: net-zero on edges, +2 on the version counter — a
    // recovery that re-derived the counter from the surviving topology
    // would get this wrong.
    UpdateBatch insert = GenerateUpdateStream(service.graph(), 1, 1.0, 11);
    ASSERT_EQ(insert.size(), 1u);
    ASSERT_TRUE(service.Mutate(insert).ok());
    ASSERT_TRUE(
        service.Mutate({GraphUpdate::Delete(insert[0].src, insert[0].dst)}).ok());
    version = service.version();
    text = GraphText(service.graph());
  }

  Graph recovered;
  ExpFinderService service(&recovered, opts);
  ASSERT_TRUE(service.durable());
  EXPECT_EQ(service.version(), version);
  EXPECT_EQ(GraphText(service.graph()), text);
}

// ---------------------------------------------------------------------------
// Replica: delta replay is bit-identical and gap-checked.
// ---------------------------------------------------------------------------

TEST_F(ReplicationFixture, ReplicaReplaysShippedBatchesBitIdentically) {
  gen::CollaborationConfig cfg;
  cfg.num_people = 60;
  cfg.num_teams = 10;
  Graph primary = gen::CollaborationNetwork(cfg);

  Replica replica(0);
  EXPECT_EQ(replica.snapshot(), nullptr);  // nothing published yet
  ReplicaBootstrap anchor;
  anchor.graph = primary;
  anchor.next_lsn = 0;
  replica.Install(std::move(anchor));
  ASSERT_NE(replica.snapshot(), nullptr);
  EXPECT_EQ(replica.installs(), 1u);

  // Ship five encoded batches, exactly what the primary's WAL carries.
  uint64_t lsn = 0;
  for (int b = 0; b < 5; ++b) {
    UpdateBatch batch = GenerateUpdateStream(primary, 10, 0.5, 900 + b);
    ASSERT_TRUE(ApplyBatch(&primary, batch).ok());
    DeltaBatch deltas;
    deltas.deltas.push_back({lsn++, DurableGraph::EncodeBatch(batch)});
    ASSERT_TRUE(replica.Apply(deltas).ok());
  }

  EXPECT_EQ(replica.next_lsn(), 5u);
  EXPECT_EQ(replica.deltas_applied(), 5u);
  EXPECT_EQ(replica.version(), primary.version());
  EXPECT_EQ(GraphText(replica.graph()), GraphText(primary));
  EXPECT_EQ(replica.snapshot()->version, primary.version());

  // The replica evaluates from its own published snapshot.
  Pattern q = gen::TeamQuery(0);
  MatchContext ctx;
  ServingPath path;
  auto relation =
      replica.Evaluate(q, MatchSemantics::kBoundedSimulation, {}, &ctx, &path);
  ASSERT_TRUE(relation.ok()) << relation.status();
  EXPECT_TRUE(*relation == ComputeBoundedSimulation(primary, q));
}

TEST_F(ReplicationFixture, ReplicaSkipsBelowCursorAndFailsOnGap) {
  Graph primary = gen::BuildFig1Graph();
  Replica replica(3);
  ReplicaBootstrap anchor;
  anchor.graph = primary;
  anchor.next_lsn = 0;
  replica.Install(std::move(anchor));

  UpdateBatch batch = GenerateUpdateStream(primary, 1, 1.0, 5);
  ASSERT_TRUE(ApplyBatch(&primary, batch).ok());
  DeltaBatch deltas;
  deltas.deltas.push_back({0, DurableGraph::EncodeBatch(batch)});
  ASSERT_TRUE(replica.Apply(deltas).ok());
  uint64_t version = replica.version();

  // Replaying the same record is the checkpoint-overlap path: skipped,
  // state untouched.
  ASSERT_TRUE(replica.Apply(deltas).ok());
  EXPECT_EQ(replica.version(), version);
  EXPECT_EQ(replica.next_lsn(), 1u);
  EXPECT_EQ(replica.deltas_applied(), 1u);

  // A record past the cursor means the feed skipped something: DataLoss,
  // nothing applied.
  DeltaBatch gap;
  gap.deltas.push_back({4, DurableGraph::EncodeBatch(batch)});
  Status st = replica.Apply(gap);
  EXPECT_TRUE(st.IsDataLoss()) << st;
  EXPECT_EQ(replica.version(), version);
  EXPECT_EQ(replica.next_lsn(), 1u);
}

// ---------------------------------------------------------------------------
// InProcessDeltaSource: live window + WAL-tail fallback.
// ---------------------------------------------------------------------------

TEST_F(ReplicationFixture, SourceWindowEvictionIsALostPrefixWithoutWal) {
  InProcessDeltaSource::Options sopts;
  sopts.window_records = 4;
  InProcessDeltaSource source(sopts, 0);
  for (uint64_t lsn = 0; lsn < 8; ++lsn) {
    source.Ship(lsn, "d" + std::to_string(lsn));
  }
  EXPECT_EQ(source.end_lsn(), 8u);

  auto in_window = source.Fetch(5, 10);
  ASSERT_TRUE(in_window.ok());
  EXPECT_FALSE(in_window->lost_prefix);
  ASSERT_EQ(in_window->deltas.size(), 3u);
  EXPECT_EQ(in_window->deltas.front().lsn, 5u);

  // Below the window with no WAL behind it: the subscriber must re-anchor.
  auto below = source.Fetch(0, 10);
  ASSERT_TRUE(below.ok());
  EXPECT_TRUE(below->lost_prefix);

  // AwaitRecords: times out at the horizon, wakes past it.
  EXPECT_FALSE(source.AwaitRecords(8, 20));
  source.Ship(8, "d8");
  EXPECT_TRUE(source.AwaitRecords(8, 1000));
}

TEST_F(ReplicationFixture, SourceFallsBackToWalTailBelowWindow) {
  std::string dir = FreshDir();
  WalOptions o;
  o.dir = dir;
  WalRecovery rec;
  auto wal = Wal::Open(o, &rec);
  ASSERT_TRUE(wal.ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE((*wal)->Append("wal-" + std::to_string(i)).ok());
  }

  InProcessDeltaSource::Options sopts;
  sopts.window_records = 4;
  sopts.wal_dir = dir;
  InProcessDeltaSource source(sopts, 6);
  source.Ship(6, "mem-6");
  source.Ship(7, "mem-7");

  // A fetch below the window stitches WAL tail + window into one
  // contiguous run.
  auto all = source.Fetch(0, 100);
  ASSERT_TRUE(all.ok()) << all.status();
  EXPECT_FALSE(all->lost_prefix);
  ASSERT_EQ(all->deltas.size(), 8u);
  for (size_t i = 0; i < all->deltas.size(); ++i) {
    EXPECT_EQ(all->deltas[i].lsn, i);
  }
  EXPECT_EQ(all->deltas[5].payload, "wal-5");
  EXPECT_EQ(all->deltas[6].payload, "mem-6");
}

// ---------------------------------------------------------------------------
// ReplicaFleet: routing, catch-up, kill/restart.
// ---------------------------------------------------------------------------

// A miniature primary for fleet tests: a graph, an LSN counter, and a
// Ship() that mirrors the service's write path (mutate, then publish the
// record), all under one lock so snapshot installs are consistent.
class FleetHarness {
 public:
  explicit FleetHarness(Graph graph, InProcessDeltaSource* source)
      : graph_(std::move(graph)), source_(source) {}

  void ShipBatch(const UpdateBatch& batch) {
    std::lock_guard<std::mutex> lock(mu_);
    ASSERT_TRUE(ApplyBatch(&graph_, batch).ok());
    source_->Ship(next_lsn_++, DurableGraph::EncodeBatch(batch));
  }

  ReplicaBootstrap Install() {
    std::lock_guard<std::mutex> lock(mu_);
    ReplicaBootstrap b;
    b.graph = graph_;
    b.next_lsn = next_lsn_;
    return b;
  }

  uint64_t version() {
    std::lock_guard<std::mutex> lock(mu_);
    return graph_.version();
  }

  const Graph& graph() const { return graph_; }  // quiesced use only

 private:
  std::mutex mu_;
  Graph graph_;
  uint64_t next_lsn_ = 0;
  InProcessDeltaSource* source_;
};

TEST_F(ReplicationFixture, FleetRoundRobinSpreadsReadsAcrossReplicas) {
  gen::CollaborationConfig cfg;
  cfg.num_people = 48;
  cfg.num_teams = 8;
  InProcessDeltaSource source({}, 0);
  FleetHarness primary(gen::CollaborationNetwork(cfg), &source);

  FleetOptions fopts;
  fopts.num_replicas = 2;
  fopts.poll_interval_ms = 1.0;
  ReplicaFleet fleet(fopts, &source, [&] { return primary.Install(); });
  fleet.Start();

  for (int b = 0; b < 3; ++b) {
    primary.ShipBatch(GenerateUpdateStream(primary.graph(), 6, 0.5, 70 + b));
  }
  uint64_t target = primary.version();
  ASSERT_TRUE(WaitFor(
      [&] {
        auto rs = fleet.Replicas();
        return rs[0].alive && rs[1].alive && rs[0].version == target &&
               rs[1].version == target;
      },
      5000.0))
      << "fleet never caught up to version " << target;

  for (int i = 0; i < 8; ++i) {
    size_t idx = 99;
    auto snap = fleet.Acquire(0, 0.0, &idx);
    ASSERT_NE(snap, nullptr);
    EXPECT_LT(idx, 2u);
    EXPECT_EQ(snap->version, target);
  }
  auto rs = fleet.Replicas();
  EXPECT_EQ(rs[0].routed_reads + rs[1].routed_reads, 8u);
  EXPECT_GT(rs[0].routed_reads, 0u);  // round-robin used both
  EXPECT_GT(rs[1].routed_reads, 0u);
  EXPECT_EQ(rs[0].lag, 0u);
  fleet.Stop();

  // Quiesced: both replicas are bit-identical to the primary.
  EXPECT_EQ(GraphText(fleet.replica(0).graph()), GraphText(primary.graph()));
  EXPECT_EQ(GraphText(fleet.replica(1).graph()), GraphText(primary.graph()));
}

TEST_F(ReplicationFixture, FleetLeastLaggedRoutingAndRestartCatchUp) {
  gen::CollaborationConfig cfg;
  cfg.num_people = 48;
  cfg.num_teams = 8;
  InProcessDeltaSource source({}, 0);
  FleetHarness primary(gen::CollaborationNetwork(cfg), &source);

  FleetOptions fopts;
  fopts.num_replicas = 2;
  fopts.routing = ReadRouting::kLeastLagged;
  fopts.poll_interval_ms = 1.0;
  ReplicaFleet fleet(fopts, &source, [&] { return primary.Install(); });
  fleet.Start();
  ASSERT_TRUE(WaitFor(
      [&] {
        auto rs = fleet.Replicas();
        return rs[0].alive && rs[1].alive;
      },
      5000.0));

  // Kill replica 0, then advance the primary: only replica 1 follows.
  fleet.StopReplica(0);
  for (int b = 0; b < 3; ++b) {
    primary.ShipBatch(GenerateUpdateStream(primary.graph(), 6, 0.5, 170 + b));
  }
  uint64_t target = primary.version();

  // min_version is the read-your-writes wait: blocks until replica 1
  // reaches the target.
  size_t idx = 99;
  auto snap = fleet.Acquire(target, 5000.0, &idx);
  ASSERT_NE(snap, nullptr) << "no replica reached version " << target;
  EXPECT_EQ(idx, 1u);  // the dead replica is never routed to
  EXPECT_GE(snap->version, target);

  // An unreachable floor times out with nullptr rather than hanging.
  EXPECT_EQ(fleet.Acquire(target + 1000, 30.0, nullptr), nullptr);

  // Restart: replica 0 re-bootstraps (second install) and catches up.
  fleet.RestartReplica(0);
  ASSERT_TRUE(WaitFor(
      [&] {
        auto rs = fleet.Replicas();
        return rs[0].alive && rs[0].version == target;
      },
      5000.0))
      << "restarted replica never caught up";
  EXPECT_GE(fleet.Replicas()[0].installs, 2u);
  fleet.Stop();
  EXPECT_EQ(GraphText(fleet.replica(0).graph()), GraphText(primary.graph()));
}

// ---------------------------------------------------------------------------
// Service integration: routed reads, min_version semantics, fallback.
// ---------------------------------------------------------------------------

TEST_F(ReplicationFixture, ServiceRoutesReadsThroughFleet) {
  gen::CollaborationConfig cfg;
  cfg.num_people = 48;
  cfg.num_teams = 8;
  Graph g = gen::CollaborationNetwork(cfg);
  Pattern pattern = gen::TeamQuery(0);

  ServiceOptions opts;
  opts.replication.num_replicas = 2;
  opts.replication.poll_interval_ms = 1.0;
  ExpFinderService service(&g, opts);
  ASSERT_NE(service.fleet(), nullptr);
  EXPECT_EQ(service.fleet()->num_replicas(), 2u);

  UpdateBatch batch = GenerateUpdateStream(service.graph(), 8, 0.5, 7);
  ASSERT_TRUE(service.Mutate(batch).ok());
  uint64_t version = service.version();

  // Oracle: relation at exactly the version the service reaches.
  Graph oracle = gen::CollaborationNetwork(cfg);
  ASSERT_TRUE(ApplyBatch(&oracle, batch).ok());
  ASSERT_EQ(oracle.version(), version);

  // min_version = my write: read-your-writes through a replica (the wait
  // inside Acquire gives the fleet time to apply the shipped delta).
  QueryRequest req;
  req.pattern = pattern;
  req.use_cache = false;
  req.min_version = version;
  auto resp = service.Query(req);
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_GE(resp->graph_version, version);
  EXPECT_TRUE(resp->answer->matches == ComputeBoundedSimulation(oracle, pattern));

  ServiceStats s = service.stats();
  EXPECT_EQ(s.deltas_shipped, 1u);
  EXPECT_EQ(s.routed_reads + s.routed_fallbacks, 1u);
  EXPECT_EQ(s.replicas.size(), 2u);
  EXPECT_EQ(s.ClassifiedQueries(), s.queries);
  std::string text = s.ToString();
  EXPECT_NE(text.find("deltas_shipped=1"), std::string::npos) << text;
  EXPECT_NE(text.find("replicas=[r0:"), std::string::npos) << text;
}

TEST_F(ReplicationFixture, MinVersionSemanticsWithoutReplication) {
  Graph g = gen::BuildFig1Graph();
  ExpFinderService service(&g);

  QueryRequest satisfied;
  satisfied.pattern = gen::BuildFig1Pattern();
  satisfied.min_version = service.version();
  ASSERT_TRUE(service.Query(satisfied).ok());

  // A floor past the primary's epoch cannot be met without replication.
  QueryRequest future = satisfied;
  future.min_version = service.version() + 5;
  auto resp = service.Query(future);
  ASSERT_FALSE(resp.ok());
  EXPECT_TRUE(resp.status().IsDeadlineExceeded()) << resp.status();

  // A floor and an exact pin contradict each other.
  QueryRequest contradictory = satisfied;
  contradictory.as_of_version = service.version();
  auto both = service.Query(contradictory);
  ASSERT_FALSE(both.ok());
  EXPECT_TRUE(both.status().IsInvalidArgument()) << both.status();

  ServiceStats s = service.stats();
  EXPECT_EQ(s.rejected, 2u);
  EXPECT_EQ(s.ClassifiedQueries(), s.queries);
}

TEST_F(ReplicationFixture, FallbackToPrimaryPolicy) {
  Graph g1 = gen::BuildFig1Graph();
  ServiceOptions opts;
  opts.replication.num_replicas = 1;
  opts.replication.poll_interval_ms = 1.0;
  opts.replication.max_staleness_wait_ms = 50.0;
  {
    // Fallback on (default): a dead fleet degrades to primary reads.
    ExpFinderService service(&g1, opts);
    service.fleet()->StopReplica(0);
    QueryRequest req;
    req.pattern = gen::BuildFig1Pattern();
    auto resp = service.Query(req);
    ASSERT_TRUE(resp.ok()) << resp.status();
    EXPECT_EQ(resp->graph_version, service.version());
    EXPECT_GE(service.stats().routed_fallbacks, 1u);
  }
  {
    // Fallback off: the same read fails loudly instead of silently
    // shifting load to the primary. With the only applier operator-stopped
    // the fleet is unrecoverable, so the failure is kUnavailable ("route
    // away") rather than a deadline miss ("waiting longer might work") —
    // and it returns without burning the staleness budget.
    Graph g2 = gen::BuildFig1Graph();
    opts.replication.fallback_to_primary = false;
    ExpFinderService service(&g2, opts);
    service.fleet()->StopReplica(0);
    QueryRequest req;
    req.pattern = gen::BuildFig1Pattern();
    auto resp = service.Query(req);
    ASSERT_FALSE(resp.ok());
    EXPECT_TRUE(resp.status().IsUnavailable()) << resp.status();
    ServiceStats s = service.stats();
    EXPECT_EQ(s.unavailable, 1u);
    EXPECT_EQ(s.ClassifiedQueries(), s.queries);
  }
}

// ---------------------------------------------------------------------------
// Satellite c: per-lane queued-depth gauges.
// ---------------------------------------------------------------------------

TEST_F(ReplicationFixture, QueuedDepthGaugesReportPerLaneBacklog) {
  Graph g = gen::BuildFig1Graph();
  ServiceOptions opts;
  opts.start_paused = true;
  ExpFinderService service(&g, opts);

  auto submit = [&](QueryPriority priority) {
    QueryRequest req;
    req.pattern = gen::BuildFig1Pattern();
    req.priority = priority;
    return service.Submit(std::move(req));
  };
  std::vector<QueryTicket> tickets;
  tickets.push_back(submit(QueryPriority::kInteractive));
  for (int i = 0; i < 2; ++i) tickets.push_back(submit(QueryPriority::kNormal));
  for (int i = 0; i < 3; ++i) {
    tickets.push_back(submit(QueryPriority::kBackground));
  }

  ServiceStats s = service.stats();
  EXPECT_EQ(s.queued, 6u);
  EXPECT_EQ(s.queued_by_priority[static_cast<size_t>(QueryPriority::kBackground)],
            3u);
  EXPECT_EQ(s.queued_by_priority[static_cast<size_t>(QueryPriority::kNormal)], 2u);
  EXPECT_EQ(
      s.queued_by_priority[static_cast<size_t>(QueryPriority::kInteractive)], 1u);
  EXPECT_NE(s.ToString().find("queued_by_lane=[background:3 normal:2 interactive:1]"),
            std::string::npos)
      << s.ToString();

  service.Resume();
  for (const QueryTicket& t : tickets) EXPECT_TRUE(t.Get().ok());
  ServiceStats drained = service.stats();
  EXPECT_EQ(drained.queued, 0u);
  for (size_t depth : drained.queued_by_priority) EXPECT_EQ(depth, 0u);
}

// ---------------------------------------------------------------------------
// Satellite b: topic-compiled patterns share cache lines with equivalent
// explicit patterns (canonical fingerprint).
// ---------------------------------------------------------------------------

TEST_F(ReplicationFixture, TopicTermsShareCacheLineWithExplicitPattern) {
  Graph g;
  NodeId a = g.AddNode("DM");
  g.SetAttr(a, "bio", AttrValue("graph mining expert"));
  NodeId b = g.AddNode("DM");
  g.SetAttr(b, "bio", AttrValue("statistics only"));
  ASSERT_TRUE(g.AddEdge(a, b).ok());

  Pattern base = [] {
    PatternBuilder builder;
    builder.Node("DM", "x").Output();
    auto built = builder.Build();
    EXPECT_TRUE(built.ok());
    return *built;
  }();

  // Explicit pattern: same predicates, written in the opposite order the
  // topic compiler emits them (it sorts its tokens).
  Pattern explicit_pattern = base;
  explicit_pattern.mutable_node(0)->conditions.emplace_back(
      "*", CmpOp::kHasToken, AttrValue("mining"));
  explicit_pattern.mutable_node(0)->conditions.emplace_back(
      "*", CmpOp::kHasToken, AttrValue("graph"));

  // The compiled topic pattern renders differently (sorted conditions),
  // while the canonical fingerprint agrees — that is precisely what makes
  // the cache line shared.
  Pattern compiled = CompileTopicTerms(base, {"Graph", "MINING"});
  EXPECT_NE(compiled.ToText(), explicit_pattern.ToText());
  EXPECT_EQ(compiled.CanonicalFingerprint(),
            explicit_pattern.CanonicalFingerprint());
  EXPECT_EQ(QueryCacheKey(compiled, MatchSemantics::kBoundedSimulation),
            QueryCacheKey(explicit_pattern, MatchSemantics::kBoundedSimulation));

  ExpFinderService service(&g);
  QueryRequest explicit_req;
  explicit_req.pattern = explicit_pattern;
  auto first = service.Query(explicit_req);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->path, ServingPath::kDirect);
  const std::vector<NodeId>& matches = first->answer->matches.MatchesOf(0);
  EXPECT_NE(std::find(matches.begin(), matches.end(), a), matches.end());
  EXPECT_EQ(std::find(matches.begin(), matches.end(), b), matches.end());

  QueryRequest topic_req;
  topic_req.pattern = base;
  topic_req.topic_terms = {"Graph", "MINING"};
  auto second = service.Query(topic_req);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->path, ServingPath::kCache);
  EXPECT_EQ(second->answer.get(), first->answer.get());  // shared answer
  EXPECT_EQ(service.stats().cache_hits, 1u);
}

// ---------------------------------------------------------------------------
// Satellite d: the randomized divergence sweep. Readers route across a
// 3-replica fleet while a writer churns; every response must equal the
// serial-replay oracle at exactly the version it reports. One replica is
// killed and restarted mid-run and must converge bit-identically.
// ---------------------------------------------------------------------------

TEST_F(ReplicationFixture, RoutedReadsMatchSerialReplayOracleUnderChurn) {
  std::string dir = FreshDir();
  gen::CollaborationConfig gen_cfg;
  gen_cfg.num_people = 240;
  gen_cfg.num_teams = 40;
  gen_cfg.seed = 9;
  Graph g = gen::CollaborationNetwork(gen_cfg);

  const std::vector<Pattern> patterns = {gen::TeamQuery(0), gen::TeamQuery(1),
                                         gen::TeamQuery(2)};

  // Serial-replay oracle: the expected relation of every pattern at every
  // version any routed read can observe.
  Graph serial = g;
  std::vector<UpdateBatch> batches;
  std::vector<std::map<uint64_t, MatchRelation>> expected(patterns.size());
  for (size_t p = 0; p < patterns.size(); ++p) {
    expected[p][serial.version()] = ComputeBoundedSimulation(serial, patterns[p]);
  }
  constexpr size_t kNumBatches = 8;
  for (size_t b = 0; b < kNumBatches; ++b) {
    UpdateBatch batch = GenerateUpdateStream(serial, 15, 0.5, 4000 + b);
    ASSERT_TRUE(ApplyBatch(&serial, batch).ok());
    batches.push_back(std::move(batch));
    for (size_t p = 0; p < patterns.size(); ++p) {
      expected[p][serial.version()] =
          ComputeBoundedSimulation(serial, patterns[p]);
    }
  }

  ServiceOptions opts;
  opts.engine.match_threads = 1;  // per-request parallelism, not per-matcher
  opts.serving_threads = 4;
  opts.durability.dir = dir;
  opts.durability.background_checkpoints = false;
  opts.durability.checkpoint_every_n_batches = 0;  // explicit CheckpointNow
  opts.replication.num_replicas = 3;
  opts.replication.poll_interval_ms = 1.0;
  opts.replication.max_staleness_wait_ms = 5000.0;
  ExpFinderService service(&g, opts);
  ASSERT_TRUE(service.durable());
  ASSERT_NE(service.fleet(), nullptr);

  std::mutex failures_mu;
  std::vector<std::string> failures;
  auto record_failure = [&](const std::string& msg) {
    std::lock_guard<std::mutex> lock(failures_mu);
    if (failures.size() < 10) failures.push_back(msg);
  };
  auto check_response = [&](size_t p, const Result<QueryResponse>& resp) {
    if (!resp.ok()) {
      record_failure("query failed: " + resp.status().ToString());
      return;
    }
    auto it = expected[p].find(resp->graph_version);
    if (it == expected[p].end()) {
      std::ostringstream os;
      os << "response reports unknown graph version " << resp->graph_version;
      record_failure(os.str());
      return;
    }
    if (!(resp->answer->matches == it->second)) {
      std::ostringstream os;
      os << "relation inconsistent with reported version "
         << resp->graph_version << " for pattern " << p << " (path "
         << ServingPathName(resp->path) << ")";
      record_failure(os.str());
    }
  };

  std::atomic<bool> writer_done{false};
  std::atomic<uint64_t> last_written_version{service.version()};
  std::thread writer([&] {
    for (size_t b = 0; b < batches.size(); ++b) {
      Status st = service.Mutate(batches[b]);
      if (!st.ok()) record_failure("mutate failed: " + st.ToString());
      last_written_version.store(service.version());
      if (b == 2) {
        // The crash drill: kill a replica, keep writing, checkpoint so
        // the restart exercises checkpoint + delta-tail bootstrap, then
        // revive it.
        service.fleet()->StopReplica(1);
      } else if (b == 5) {
        Status ck = service.CheckpointNow();
        if (!ck.ok()) record_failure("checkpoint failed: " + ck.ToString());
        service.fleet()->RestartReplica(1);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
    writer_done.store(true);
  });

  std::vector<std::thread> readers;
  for (size_t t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(500 * (t + 1));
      size_t reads = 0;
      while (reads < 30 || !writer_done.load()) {
        if (reads >= 200) break;  // hard cap; never starves the writer
        size_t p = rng.NextBounded(patterns.size());
        QueryRequest req;
        req.pattern = patterns[p];
        req.use_cache = rng.NextBounded(2) == 0;
        if (rng.NextBounded(4) == 0) {
          // Read-your-writes: a floor at the last acknowledged write.
          req.min_version = last_written_version.load();
        }
        check_response(p, service.Query(req));
        ++reads;
      }
    });
  }
  writer.join();
  for (std::thread& r : readers) r.join();

  {
    std::lock_guard<std::mutex> lock(failures_mu);
    for (const std::string& f : failures) ADD_FAILURE() << f;
  }

  // Every replica — including the killed-and-restarted one — converges to
  // the primary's final version.
  uint64_t final_version = service.version();
  EXPECT_EQ(final_version, serial.version());
  ASSERT_TRUE(WaitFor(
      [&] {
        auto rs = service.fleet()->Replicas();
        for (const ReplicaStatus& r : rs) {
          if (!r.alive || r.version != final_version) return false;
        }
        return true;
      },
      10000.0))
      << "fleet never converged on version " << final_version;

  auto statuses = service.fleet()->Replicas();
  EXPECT_GE(statuses[1].installs, 2u);  // bootstrapped, then re-bootstrapped

  // Quiesce the appliers, then check bit-identity against both the live
  // primary and the serial replay.
  std::string primary_text = GraphText(service.graph());
  EXPECT_EQ(primary_text, GraphText(serial));
  for (size_t i = 0; i < service.fleet()->num_replicas(); ++i) {
    service.fleet()->StopReplica(i);
    const Replica& replica = service.fleet()->replica(i);
    EXPECT_EQ(replica.version(), final_version) << "replica " << i;
    EXPECT_EQ(GraphText(replica.graph()), primary_text) << "replica " << i;
  }

  ServiceStats s = service.stats();
  EXPECT_EQ(s.ClassifiedQueries(), s.queries);
  EXPECT_EQ(s.deltas_shipped, kNumBatches);
  EXPECT_GT(s.routed_reads, 0u);
}

}  // namespace
}  // namespace expfinder
