// GraphSnapshot: the immutable publication unit. Capture semantics (a
// frozen copy sharing the source's sealed pages, isolated from later
// mutation of the source, also while readers scan it on other threads),
// handle identity through Graph::Publish, and the shared lazy ball-index
// slot: deferred build, grow-only depth, first-limits-wins, failure
// memoization, and lock-free cached reads — all per snapshot, not per
// context. Last, the CSR chunks the Csr reads: equal to the lists under
// churn, built once per sealed page, safe to capture concurrently.

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "src/generator/generators.h"
#include "src/graph/graph_snapshot.h"
#include "src/matching/bounded_simulation.h"
#include "src/matching/match_context.h"
#include "src/util/random.h"
#include "src/util/thread_pool.h"

namespace expfinder {
namespace {

BallIndexOptions EagerLimits() {
  BallIndexOptions limits;
  limits.build_after_uses = 1;
  return limits;
}

TEST(GraphSnapshotTest, CaptureFreezesTheGraph) {
  Graph g = gen::BuildFig1Graph();
  const uint64_t version = g.version();
  const size_t nodes = g.NumNodes();
  const size_t edges = g.NumEdges();
  SnapshotPtr snap = g.Publish();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->version(), version);
  EXPECT_EQ(snap->uid(), g.uid());
  EXPECT_EQ(snap->csr().NumNodes(), nodes);

  // Mutating the source after capture must not leak into the snapshot.
  NodeId extra = g.AddNode("HR");
  ASSERT_TRUE(g.AddEdge(extra, 0).ok());
  EXPECT_GT(g.version(), version);
  EXPECT_EQ(snap->version(), version);
  EXPECT_EQ(snap->graph().NumNodes(), nodes);
  EXPECT_EQ(snap->graph().NumEdges(), edges);
  EXPECT_EQ(snap->csr().NumNodes(), nodes);
}

TEST(GraphSnapshotTest, MatchersAgreeOnSnapshotAndLiveGraph) {
  Graph g = gen::BuildFig1Graph();
  Pattern q = gen::BuildFig1Pattern();
  SnapshotPtr snap = g.Publish();
  MatchContext ctx;
  MatchRelation via_snapshot = ComputeBoundedSimulation(snap, q, {}, &ctx);
  MatchRelation via_graph = ComputeBoundedSimulation(g, q);
  EXPECT_TRUE(via_snapshot == via_graph);
  EXPECT_EQ(via_snapshot.TotalPairs(), 7u);
  // The context is bound to the snapshot and shares its CSR.
  EXPECT_EQ(ctx.bound_snapshot(), snap);
}

TEST(GraphSnapshotTest, BallIndexDeferredUntilObservedReuse) {
  Graph g = gen::BuildFig1Graph();
  SnapshotPtr snap = g.Publish();
  BallIndexOptions limits;
  limits.build_after_uses = 3;
  bool built_now = false;
  // The first build_after_uses - 1 calls observe a use but refuse to build.
  EXPECT_EQ(snap->BallIndex(2, limits, nullptr, 1, &built_now), nullptr);
  EXPECT_FALSE(built_now);
  EXPECT_EQ(snap->BallIndex(2, limits, nullptr, 1, &built_now), nullptr);
  EXPECT_EQ(snap->CachedBallIndex(), nullptr);
  // The threshold call pays the build; later calls share it for free.
  const KhopIndex* index = snap->BallIndex(2, limits, nullptr, 1, &built_now);
  ASSERT_NE(index, nullptr);
  EXPECT_TRUE(built_now);
  EXPECT_EQ(index->depth(), 2u);
  EXPECT_EQ(snap->BallIndex(2, limits, nullptr, 1, &built_now), index);
  EXPECT_FALSE(built_now);
  EXPECT_EQ(snap->CachedBallIndex(), index);
}

TEST(GraphSnapshotTest, BallIndexGrowsDepthAndRetiresShallowIndex) {
  Graph g = gen::BuildFig1Graph();
  SnapshotPtr snap = g.Publish();
  bool built_now = false;
  const KhopIndex* shallow = snap->BallIndex(1, EagerLimits(), nullptr, 1, &built_now);
  ASSERT_NE(shallow, nullptr);
  EXPECT_EQ(shallow->depth(), 1u);
  // A deeper request rebuilds; the shallow index stays alive (retired, not
  // freed) so a reader holding it mid-swap is never left dangling.
  const KhopIndex* deep = snap->BallIndex(3, EagerLimits(), nullptr, 1, &built_now);
  ASSERT_NE(deep, nullptr);
  EXPECT_TRUE(built_now);
  EXPECT_EQ(deep->depth(), 3u);
  EXPECT_NE(deep, shallow);
  EXPECT_EQ(shallow->depth(), 1u);  // still readable
  // Grow-only: a shallower request is served by the deep index.
  EXPECT_EQ(snap->BallIndex(2, EagerLimits(), nullptr, 1, &built_now), deep);
  EXPECT_FALSE(built_now);
}

TEST(GraphSnapshotTest, FirstLimitsWinTheSharedSlot) {
  Graph g = gen::BuildFig1Graph();
  SnapshotPtr snap = g.Publish();
  bool built_now = false;
  const KhopIndex* index = snap->BallIndex(2, EagerLimits(), nullptr, 1, &built_now);
  ASSERT_NE(index, nullptr);
  // An already-published deep-enough index is served to any caller — it is
  // exact regardless of the caps it was built under.
  BallIndexOptions other = EagerLimits();
  other.max_ball_nodes = 7;
  EXPECT_EQ(snap->BallIndex(2, other, nullptr, 1, &built_now), index);
  EXPECT_FALSE(built_now);
  // But a request that would need a *build* under different limits gets
  // BFS fallback, not a thrashing rebuild of the shared slot.
  EXPECT_EQ(snap->BallIndex(3, other, nullptr, 1, &built_now), nullptr);
  EXPECT_FALSE(built_now);
  EXPECT_EQ(snap->CachedBallIndex(), index);  // slot untouched
  // The slot's own limits may still deepen it.
  const KhopIndex* deep = snap->BallIndex(3, EagerLimits(), nullptr, 1, &built_now);
  ASSERT_NE(deep, nullptr);
  EXPECT_TRUE(built_now);
  EXPECT_EQ(deep->depth(), 3u);
}

TEST(GraphSnapshotTest, BlownBudgetIsMemoizedPerDepth) {
  // A chain long enough that depth 4 balls exceed a tiny total budget.
  Graph g;
  std::vector<NodeId> nodes;
  for (int i = 0; i < 64; ++i) nodes.push_back(g.AddNode("PM"));
  for (size_t i = 0; i + 1 < nodes.size(); ++i) {
    ASSERT_TRUE(g.AddEdge(nodes[i], nodes[i + 1]).ok());
  }
  SnapshotPtr snap = g.Publish();
  BallIndexOptions tiny = EagerLimits();
  tiny.max_total_entries = 8;
  bool built_now = false;
  EXPECT_EQ(snap->BallIndex(4, tiny, nullptr, 1, &built_now), nullptr);
  EXPECT_FALSE(built_now);
  // Deeper builds can only be bigger: refused without re-running the build.
  EXPECT_EQ(snap->BallIndex(4, tiny, nullptr, 1, &built_now), nullptr);
  EXPECT_EQ(snap->CachedBallIndex(), nullptr);
}

TEST(GraphSnapshotTest, ConcurrentBuildersPayExactlyOneBuild) {
  gen::CollaborationConfig cfg;
  cfg.num_people = 200;
  cfg.num_teams = 30;
  cfg.seed = 9;
  Graph g = gen::CollaborationNetwork(cfg);
  SnapshotPtr snap = g.Publish();
  std::atomic<size_t> builds{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        bool built_now = false;
        const KhopIndex* index =
            snap->BallIndex(2, EagerLimits(), nullptr, 1, &built_now);
        ASSERT_NE(index, nullptr);
        if (built_now) builds.fetch_add(1);
        EXPECT_EQ(index->depth(), 2u);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(builds.load(), 1u);
  EXPECT_NE(snap->CachedBallIndex(), nullptr);
}

// --- Copy-on-write pages under concurrency ---------------------------------

// Adjacency-plus-attributes checksum (FNV-1a over every node's label, out-
// and in-lists in stored order, and attribute pairs).
uint64_t Checksum(const Graph& g) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t x) { h = (h ^ x) * 1099511628211ULL; };
  mix(g.NumNodes());
  mix(g.NumEdges());
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    mix(g.label(v));
    for (NodeId w : g.OutNeighbors(v)) mix(w);
    mix(~uint64_t{0});
    for (NodeId w : g.InNeighbors(v)) mix(w);
    mix(~uint64_t{0});
    for (const auto& [key, value] : g.Attrs(v)) {
      mix(key);
      for (char c : value.Serialize()) mix(static_cast<unsigned char>(c));
    }
  }
  return h;
}

// 400 nodes: seven 64-node pages, the last one partly filled.
Graph StressGraph() { return gen::TwitterLike({.n = 400, .out_per_node = 4, .seed = 5}); }

// One writer step: four random edge flips (insert when absent, remove when
// present), plus an attribute write every 5th step and a node every 11th.
void RandomWriterStep(Graph* g, Rng* rng, size_t step) {
  const size_t n = g->NumNodes();
  for (int i = 0; i < 4; ++i) {
    const auto a = static_cast<NodeId>(rng->NextBounded(n));
    const auto b = static_cast<NodeId>(rng->NextBounded(n));
    const Status st = g->HasEdge(a, b) ? g->RemoveEdge(a, b) : g->AddEdge(a, b);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  if (step % 5 == 0) {
    g->SetAttr(static_cast<NodeId>(rng->NextBounded(n)),
               rng->NextBool() ? "name" : "score",
               AttrValue(static_cast<int64_t>(step)));
  }
  if (step % 11 == 0) g->AddNode("late");
}

TEST(GraphSnapshotTest, PinnedSnapshotsKeepTheirChecksumWhileTheWriterClones) {
  struct Published {
    SnapshotPtr snap;
    uint64_t checksum;
  };
  Graph g = StressGraph();
  std::mutex mu;
  std::vector<Published> published{{g.Publish(), Checksum(g)}};
  std::atomic<bool> done{false};
  std::atomic<size_t> verified{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(100 + t);
      std::vector<Published> pinned;  // held across several writer steps
      do {
        {
          std::lock_guard<std::mutex> lock(mu);
          pinned.push_back(published[rng.NextBounded(published.size())]);
        }
        if (pinned.size() > 3) pinned.erase(pinned.begin());
        for (const Published& p : pinned) {
          EXPECT_EQ(Checksum(p.snap->graph()), p.checksum);
          verified.fetch_add(1, std::memory_order_relaxed);
        }
        if (rng.NextBounded(4) == 0) {
          // A private copy (as replica bootstrap makes) seals the pinned
          // pages again while the writer tests seals, then writes clones.
          const Published& p = pinned.back();
          Graph copy = p.snap->graph();
          RandomWriterStep(&copy, &rng, 5);
          EXPECT_EQ(Checksum(p.snap->graph()), p.checksum);
        }
      } while (!done.load(std::memory_order_acquire));
    });
  }
  Rng rng(7);
  for (size_t step = 1; step <= 300; ++step) {
    RandomWriterStep(&g, &rng, step);
    Published p{g.Publish(), Checksum(g)};
    std::lock_guard<std::mutex> lock(mu);
    published.push_back(std::move(p));
    // Retire old epochs so pages are freed while readers may pin them.
    if (published.size() > 16) published.erase(published.begin());
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  for (const Published& p : published) EXPECT_EQ(Checksum(p.snap->graph()), p.checksum);
  EXPECT_GT(verified.load(), 0u);
}

TEST(GraphSnapshotTest, CopyAndSourceMutateConcurrentlyLikeReplicaBootstrap) {
  constexpr size_t kSteps = 300;
  // Serial replay of one side's steps on a graph built from scratch.
  auto replay = [](uint64_t seed) {
    Graph g = StressGraph();
    Rng rng(seed);
    for (size_t step = 1; step <= kSteps; ++step) RandomWriterStep(&g, &rng, step);
    return g;
  };
  // Each side publishes now and then, sealing pages the other side may be
  // cloning at that moment.
  auto run = [](Graph* g, uint64_t seed) {
    Rng rng(seed);
    std::vector<SnapshotPtr> epochs;
    for (size_t step = 1; step <= kSteps; ++step) {
      RandomWriterStep(g, &rng, step);
      if (step % 10 == 0) epochs.push_back(g->Publish());
    }
  };
  Graph source = StressGraph();
  Graph copy = source;
  std::thread other([&] { run(&copy, 22); });
  run(&source, 11);
  other.join();
  const Graph expected_source = replay(11);
  const Graph expected_copy = replay(22);
  EXPECT_EQ(Checksum(source), Checksum(expected_source));
  EXPECT_EQ(source.version(), expected_source.version());
  EXPECT_EQ(Checksum(copy), Checksum(expected_copy));
  EXPECT_EQ(copy.version(), expected_copy.version());
  EXPECT_NE(Checksum(source), Checksum(copy));
}


// --- CSR chunks --------------------------------------------------------------
// A snapshot's Csr reads the chunk each adjacency page got when it was
// sealed. Under any churn every row must equal the frozen list element for
// element, neighbour order included, and a capture builds chunks only for
// the pages mutated since the previous one.

void ExpectCsrEqualsLists(const GraphSnapshot& snap) {
  const Graph& g = snap.graph();
  const Csr& csr = snap.csr();
  ASSERT_EQ(csr.NumNodes(), g.NumNodes());
  EXPECT_EQ(csr.NumEdges(), g.NumEdges());
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    const std::span<const NodeId> out = csr.Out(v);
    const std::span<const NodeId> in = csr.In(v);
    EXPECT_EQ(std::vector<NodeId>(out.begin(), out.end()), g.OutNeighbors(v)) << "out " << v;
    EXPECT_EQ(std::vector<NodeId>(in.begin(), in.end()), g.InNeighbors(v)) << "in " << v;
  }
}

size_t NumPages(const Graph& g) {
  return (g.NumNodes() + Graph::kPageNodes - 1) / Graph::kPageNodes;
}

TEST(CsrChunkTest, SeededChurnKeepsEveryRowEqualToItsList) {
  Rng rng(1919);
  Graph g;
  for (int i = 0; i < 63; ++i) g.AddNode("P");
  std::vector<SnapshotPtr> held;  // earlier snapshots must stay intact
  auto capture = [&] {
    SnapshotPtr snap = g.Publish();
    ExpectCsrEqualsLists(*snap);
    held.push_back(std::move(snap));
  };
  // Edge flips only (steps 1-10 add no node), so the page stays 63 full.
  for (size_t round = 0; round < 4; ++round) {
    for (size_t step = 1; step <= 10; ++step) RandomWriterStep(&g, &rng, step);
  }
  ASSERT_EQ(g.NumNodes(), 63u);
  capture();

  // Node 63 lands in the last slot of a sealed page (whose chunk predates
  // it), 64 and 65 in a fresh one; each is captured bare, then wired both
  // ways and captured again.
  for (NodeId id : {NodeId{63}, NodeId{64}, NodeId{65}}) {
    ASSERT_EQ(g.AddNode("P"), id);
    capture();
    ASSERT_TRUE(g.AddEdge(id, 0).ok());
    ASSERT_TRUE(g.AddEdge(1, id).ok());
    capture();
  }

  // Deleting the head of a list moves its last entry to the front.
  ASSERT_TRUE(g.AddEdge(2, 10).ok());
  ASSERT_TRUE(g.AddEdge(2, 11).ok());
  ASSERT_TRUE(g.AddEdge(2, 12).ok());
  const std::vector<NodeId> before = g.OutNeighbors(2);
  ASSERT_TRUE(g.RemoveEdge(2, before.front()).ok());
  EXPECT_EQ(g.OutNeighbors(2).front(), before.back());
  capture();

  for (size_t step = 41; step <= 120; ++step) {
    RandomWriterStep(&g, &rng, step);
    if (step % 3 == 0) capture();
  }

  // A copy shares every sealed page with the writer; each then clones only
  // what it writes.
  Graph copy = g;
  Rng copy_rng(2020);
  for (size_t step = 121; step <= 160; ++step) {
    RandomWriterStep(&g, &rng, step);
    RandomWriterStep(&copy, &copy_rng, step);
    if (step % 4 == 0) {
      capture();
      SnapshotPtr other = copy.Publish();
      ExpectCsrEqualsLists(*other);
      held.push_back(std::move(other));
    }
  }
  for (const SnapshotPtr& snap : held) ExpectCsrEqualsLists(*snap);
}

TEST(CsrChunkTest, OneEdgeBatchBuildsOneChunkPerSide) {
  Graph g = StressGraph();
  SnapshotPtr before = g.Publish();
  EXPECT_EQ(before->chunks_built(), 2 * NumPages(g));
  EXPECT_EQ(g.Publish()->chunks_built(), 0u);  // nothing mutated since

  // Source on page 1, target on page 5.
  NodeId src = 70;
  NodeId dst = 330;
  while (g.HasEdge(src, dst)) ++dst;
  ASSERT_TRUE(g.AddEdge(src, dst).ok());
  SnapshotPtr after = g.Publish();
  EXPECT_EQ(after->chunks_built(), 2u);
  ExpectCsrEqualsLists(*after);
  // Every other page's rows are read from the very chunks `before` reads.
  const size_t src_page = src / Graph::kPageNodes;
  const size_t dst_page = dst / Graph::kPageNodes;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    const size_t page = v / Graph::kPageNodes;
    EXPECT_EQ(after->csr().Out(v).data() == before->csr().Out(v).data(), page != src_page)
        << "out " << v;
    EXPECT_EQ(after->csr().In(v).data() == before->csr().In(v).data(), page != dst_page)
        << "in " << v;
  }
}

TEST(CsrChunkTest, ConcurrentCapturesOfPageSharingGraphs) {
  // Several threads capture one graph no one has sealed yet: each chunk is
  // installed exactly once, whoever builds it first.
  Graph fresh = StressGraph();
  constexpr int kThreads = 4;
  std::atomic<size_t> built{0};
  std::vector<SnapshotPtr> snaps(kThreads);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        snaps[t] = fresh.Publish();
        built.fetch_add(snaps[t]->chunks_built(), std::memory_order_relaxed);
      });
    }
    for (auto& t : threads) t.join();
  }
  EXPECT_EQ(built.load(), 2 * NumPages(fresh));
  for (const SnapshotPtr& snap : snaps) ExpectCsrEqualsLists(*snap);

  // Copies sharing those sealed pages each mutate and capture on their own
  // thread, while another thread keeps capturing the shared source.
  std::vector<Graph> copies(kThreads, fresh);
  std::atomic<bool> done{false};
  std::thread source_reader([&] {
    do {
      ExpectCsrEqualsLists(*fresh.Publish());
    } while (!done.load(std::memory_order_acquire));
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      Rng rng(300 + t);
      std::vector<SnapshotPtr> epochs;
      for (size_t step = 1; step <= 60; ++step) {
        RandomWriterStep(&copies[t], &rng, step);
        epochs.push_back(copies[t].Publish());
        ExpectCsrEqualsLists(*epochs.back());
      }
      for (const SnapshotPtr& snap : epochs) ExpectCsrEqualsLists(*snap);
    });
  }
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  source_reader.join();
  for (const SnapshotPtr& snap : snaps) ExpectCsrEqualsLists(*snap);
}

}  // namespace
}  // namespace expfinder
