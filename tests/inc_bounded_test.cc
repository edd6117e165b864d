#include <gtest/gtest.h>

#include "src/generator/generators.h"
#include "src/incremental/inc_bounded.h"
#include "src/matching/bounded_simulation.h"

namespace expfinder {
namespace {

TEST(IncBoundedTest, InitialStateMatchesBatch) {
  Graph g = gen::CollaborationNetwork({.num_people = 120, .num_teams = 25, .seed = 8});
  Pattern q = gen::RandomPattern(4, 5, 3, 0.4, 21);
  IncrementalBoundedSimulation inc(&g, q);
  EXPECT_TRUE(inc.Snapshot() == ComputeBoundedSimulation(g, q));
}

TEST(IncBoundedTest, InsertShortensPathIntoBound) {
  // a[A] -2-> b[B]; data A . . B four hops apart, then a shortcut.
  Graph g;
  g.AddNode("A");   // 0
  g.AddNode("X");   // 1
  g.AddNode("X");   // 2
  g.AddNode("B");   // 3
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ASSERT_TRUE(g.AddEdge(1, 2).ok());
  ASSERT_TRUE(g.AddEdge(2, 3).ok());
  PatternBuilder b;
  auto a = b.Node("A", "a").Output();
  auto bb = b.Node("B", "b");
  b.Edge(a, bb, 2);
  Pattern q = b.Build().value();
  IncrementalBoundedSimulation inc(&g, q);
  EXPECT_TRUE(inc.Snapshot().IsEmpty());  // dist(A,B)=3 > 2
  auto delta = inc.ApplyBatch({GraphUpdate::Insert(1, 3)});
  ASSERT_TRUE(delta.ok());
  EXPECT_FALSE(inc.Snapshot().IsEmpty());
  EXPECT_TRUE(inc.Snapshot() == ComputeBoundedSimulation(g, q));
}

TEST(IncBoundedTest, DeleteStretchesPathBeyondBound) {
  Graph g;
  g.AddNode("A");
  g.AddNode("X");
  g.AddNode("B");
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ASSERT_TRUE(g.AddEdge(1, 2).ok());
  ASSERT_TRUE(g.AddEdge(0, 2).ok());  // direct shortcut
  PatternBuilder b;
  auto a = b.Node("A", "a").Output();
  auto bb = b.Node("B", "b");
  b.Edge(a, bb, 1);
  Pattern q = b.Build().value();
  IncrementalBoundedSimulation inc(&g, q);
  EXPECT_FALSE(inc.Snapshot().IsEmpty());
  // Removing the shortcut leaves only the 2-hop path: bound 1 now fails.
  auto delta = inc.ApplyBatch({GraphUpdate::Delete(0, 2)});
  ASSERT_TRUE(delta.ok());
  EXPECT_TRUE(inc.Snapshot().IsEmpty());
  EXPECT_TRUE(inc.Snapshot() == ComputeBoundedSimulation(g, q));
}

TEST(IncBoundedTest, CyclicPatternMutualRestore) {
  // Self-loop pattern with bound 2: inserting the closing edge of a
  // 2-cycle revives both endpoints at once.
  Graph g;
  g.AddNode("A");
  g.AddNode("A");
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  PatternBuilder b;
  auto a = b.Node("A", "a").Output();
  b.Edge(a, a, 2);
  Pattern q = b.Build().value();
  IncrementalBoundedSimulation inc(&g, q);
  EXPECT_TRUE(inc.Snapshot().IsEmpty());
  auto delta = inc.ApplyBatch({GraphUpdate::Insert(1, 0)});
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(inc.Snapshot().MatchesOf(0), (std::vector<NodeId>{0, 1}));
  EXPECT_TRUE(inc.Snapshot() == ComputeBoundedSimulation(g, q));
}

TEST(IncBoundedTest, AffectedAreaReported) {
  Graph g = gen::ErdosRenyi(100, 400, 17);
  Pattern q = gen::RandomPattern(4, 5, 2, 0.4, 31);
  IncrementalBoundedSimulation inc(&g, q);
  UpdateBatch batch = GenerateUpdateStream(g, 1, 1.0, 3);
  ASSERT_TRUE(inc.ApplyBatch(batch).ok());
  EXPECT_GT(inc.last_affected_size(), 0u);
  EXPECT_LT(inc.last_affected_size(), 5 * g.NumNodes());
}

TEST(IncBoundedTest, TwoPhaseProtocolMatchesConvenienceWrapper) {
  Graph g1 = gen::ErdosRenyi(50, 200, 19);
  Graph g2 = g1;
  Pattern q = gen::RandomPattern(4, 4, 3, 0.3, 23);
  IncrementalBoundedSimulation wrapped(&g1, q);
  IncrementalBoundedSimulation phased(&g2, q);
  UpdateBatch batch = GenerateUpdateStream(g1, 10, 0.5, 29);

  ASSERT_TRUE(wrapped.ApplyBatch(batch).ok());
  phased.PreUpdate(batch);
  ASSERT_TRUE(ApplyBatch(&g2, batch).ok());
  phased.PostUpdate(batch);
  EXPECT_TRUE(wrapped.Snapshot() == phased.Snapshot());
}

// A batch the graph rejects must leave the maintainer as it was: PreUpdate
// has already seeded from the batch's deletions, and the failed ApplyBatch
// has to drop those seeds, or the next batch would recompute them as well.
TEST(IncBoundedTest, InvalidBatchRollsBackAndStaysReusable) {
  Graph g = gen::ErdosRenyi(60, 240, 41);
  Graph twin_g = g;
  PatternBuilder b;
  auto sd = b.Node("SD", "sd").Output();
  auto st = b.Node("ST", "st");
  auto ba = b.Node("BA", "ba");
  b.Edge(sd, st, 2).Edge(st, sd, 2).Edge(sd, ba, 2);
  Pattern q = b.Build().value();
  IncrementalBoundedSimulation inc(&g, q);
  IncrementalBoundedSimulation twin(&twin_g, q);  // never sees the bad batch
  const MatchRelation before = inc.Snapshot();
  ASSERT_FALSE(before.IsEmpty());
  const uint64_t version = g.version();

  NodeId src = 0;
  while (g.OutDegree(src) == 0) ++src;
  const NodeId dst = g.OutNeighbors(src).front();
  NodeId missing = 1;
  while (missing == src || g.HasEdge(src, missing)) ++missing;
  // The missing edge goes first, so the graph rejects the batch before
  // mutating anything.
  auto failed = inc.ApplyBatch({GraphUpdate::Delete(src, missing),
                                GraphUpdate::Delete(src, dst)});
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(g.version(), version);
  EXPECT_TRUE(g.HasEdge(src, dst));
  EXPECT_TRUE(inc.Snapshot() == before);

  UpdateBatch stream = GenerateUpdateStream(g, 12, 0.5, 43);
  for (size_t i = 0; i < stream.size(); i += 3) {
    UpdateBatch batch(stream.begin() + i, stream.begin() + i + 3);
    ASSERT_TRUE(inc.ApplyBatch(batch).ok());
    ASSERT_TRUE(twin.ApplyBatch(batch).ok());
    ASSERT_TRUE(inc.Snapshot() == ComputeBoundedSimulation(g, q)) << "at " << i;
    // Seeds left over from the failed batch would show up as extra |AFF|.
    EXPECT_EQ(inc.last_affected_size(), twin.last_affected_size()) << "at " << i;
  }
}

struct StreamParam {
  uint64_t seed;
  double insert_fraction;
  size_t steps;
  size_t batch_size;
  Distance max_bound;
};

class IncBoundedStreamSweep : public ::testing::TestWithParam<StreamParam> {};

TEST_P(IncBoundedStreamSweep, AlwaysEqualsBatchRecomputation) {
  const StreamParam p = GetParam();
  Graph g = gen::ErdosRenyi(50, 200, p.seed);
  Pattern q = gen::RandomPattern(4, 5, p.max_bound, 0.4, p.seed * 11 + 3);
  IncrementalBoundedSimulation inc(&g, q);
  UpdateBatch stream = GenerateUpdateStream(g, p.steps * p.batch_size,
                                            p.insert_fraction, p.seed * 17 + 4);
  for (size_t step = 0; step < p.steps; ++step) {
    UpdateBatch batch(stream.begin() + step * p.batch_size,
                      stream.begin() + (step + 1) * p.batch_size);
    auto delta = inc.ApplyBatch(batch);
    ASSERT_TRUE(delta.ok()) << delta.status();
    ASSERT_TRUE(inc.Snapshot() == ComputeBoundedSimulation(g, q))
        << "diverged at step " << step << " seed " << p.seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Streams, IncBoundedStreamSweep,
    ::testing::Values(StreamParam{1, 0.5, 15, 1, 2},   // unit, small bounds
                      StreamParam{2, 0.8, 12, 1, 3},   // insert heavy
                      StreamParam{3, 0.2, 12, 1, 3},   // delete heavy
                      StreamParam{4, 0.5, 8, 6, 2},    // batches
                      StreamParam{5, 0.5, 4, 25, 3},   // large batches
                      StreamParam{6, 1.0, 8, 4, 4},    // inserts only
                      StreamParam{7, 0.0, 8, 4, 4},    // deletes only
                      StreamParam{8, 0.5, 8, 4, 1}));  // degenerate bound 1

// Collaboration-network stream with the Fig.1-style query shape.
TEST(IncBoundedTest, CollaborationStreamWithTeamQuery) {
  gen::CollaborationConfig cfg;
  cfg.num_people = 100;
  cfg.num_teams = 25;
  cfg.seed = 31;
  Graph g = gen::CollaborationNetwork(cfg);
  Pattern q = gen::TeamQuery(0);
  IncrementalBoundedSimulation inc(&g, q);
  UpdateBatch stream = GenerateUpdateStream(g, 60, 0.5, 37);
  for (size_t i = 0; i < stream.size(); i += 6) {
    UpdateBatch batch(stream.begin() + i, stream.begin() + i + 6);
    ASSERT_TRUE(inc.ApplyBatch(batch).ok());
    ASSERT_TRUE(inc.Snapshot() == ComputeBoundedSimulation(g, q)) << "at " << i;
  }
}

}  // namespace
}  // namespace expfinder
