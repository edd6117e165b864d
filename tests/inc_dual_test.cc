#include <gtest/gtest.h>

#include "src/generator/generators.h"
#include "src/incremental/inc_dual.h"
#include "src/matching/dual_simulation.h"

namespace expfinder {
namespace {

TEST(IncDualTest, InitialStateMatchesBatch) {
  Graph g = gen::CollaborationNetwork({.num_people = 120, .num_teams = 25, .seed = 3});
  Pattern q = gen::RandomPattern(4, 5, 3, 0.4, 19);
  IncrementalDualSimulation inc(&g, q);
  EXPECT_TRUE(inc.Snapshot() == ComputeDualSimulation(g, q));
}

TEST(IncDualTest, InsertRestoresViaAncestorSide) {
  // a[A] -> b[B]: B exists without a parent; inserting the edge makes both
  // match — the b-side improvement flows through the *backward* window.
  Graph g;
  g.AddNode("A");
  g.AddNode("B");
  PatternBuilder b;
  auto a = b.Node("A", "a").Output();
  auto bb = b.Node("B", "b");
  b.Edge(a, bb, 1);
  Pattern q = b.Build().value();
  IncrementalDualSimulation inc(&g, q);
  EXPECT_TRUE(inc.Snapshot().IsEmpty());
  auto delta = inc.ApplyBatch({GraphUpdate::Insert(0, 1)});
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(delta->added.size(), 2u);
  EXPECT_TRUE(inc.Snapshot() == ComputeDualSimulation(g, q));
}

TEST(IncDualTest, DeleteCascadesThroughBothSides) {
  // Chain A -> B -> C with pattern a->b->c (bounds 1): removing the middle
  // edge wipes everything in both directions.
  Graph g;
  g.AddNode("A");
  g.AddNode("B");
  g.AddNode("C");
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ASSERT_TRUE(g.AddEdge(1, 2).ok());
  PatternBuilder b;
  auto a = b.Node("A", "a").Output();
  auto bb = b.Node("B", "b");
  auto c = b.Node("C", "c");
  b.Edge(a, bb).Edge(bb, c);
  Pattern q = b.Build().value();
  IncrementalDualSimulation inc(&g, q);
  EXPECT_FALSE(inc.Snapshot().IsEmpty());
  auto delta = inc.ApplyBatch({GraphUpdate::Delete(0, 1)});
  ASSERT_TRUE(delta.ok());
  EXPECT_TRUE(inc.Snapshot().IsEmpty());
  EXPECT_TRUE(inc.Snapshot() == ComputeDualSimulation(g, q));
}

TEST(IncDualTest, Fig1StrayTesterConnectsIncrementally) {
  Graph g = gen::BuildFig1Graph();
  Pattern q = gen::BuildFig1Pattern();
  IncrementalDualSimulation inc(&g, q);
  auto st = *q.FindNode("ST");
  // Add a stray tester: excluded under dual semantics until someone
  // collaborates with him.
  NodeId tom = g.AddNode("ST");
  g.SetAttr(tom, "experience", AttrValue(3));
  inc.OnNodeAdded(tom);
  EXPECT_FALSE(inc.Snapshot().Contains(st, tom));
  // Jean starts working with Tom: within BA->ST bound 1 and SD->ST bound 2.
  auto delta = inc.ApplyBatch({GraphUpdate::Insert(gen::Fig1::kJean, tom)});
  ASSERT_TRUE(delta.ok());
  EXPECT_TRUE(inc.Snapshot().Contains(st, tom));
  EXPECT_TRUE(inc.Snapshot() == ComputeDualSimulation(g, q));
}

// Same contract as IncBoundedTest.InvalidBatchRollsBackAndStaysReusable:
// a rejected batch drops the seeds PreUpdate collected in both directions.
TEST(IncDualTest, InvalidBatchRollsBackAndStaysReusable) {
  Graph g = gen::ErdosRenyi(60, 240, 41);
  Graph twin_g = g;
  PatternBuilder b;
  auto sd = b.Node("SD", "sd").Output();
  auto st = b.Node("ST", "st");
  auto ba = b.Node("BA", "ba");
  b.Edge(sd, st, 2).Edge(st, sd, 2).Edge(sd, ba, 2);
  Pattern q = b.Build().value();
  IncrementalDualSimulation inc(&g, q);
  IncrementalDualSimulation twin(&twin_g, q);  // never sees the bad batch
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
    ASSERT_TRUE(inc.Snapshot() == ComputeDualSimulation(g, q)) << "at " << i;
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

class IncDualStreamSweep : public ::testing::TestWithParam<StreamParam> {};

TEST_P(IncDualStreamSweep, AlwaysEqualsBatchRecomputation) {
  const StreamParam p = GetParam();
  Graph g = gen::ErdosRenyi(50, 200, p.seed);
  Pattern q = gen::RandomPattern(4, 5, p.max_bound, 0.4, p.seed * 19 + 5);
  IncrementalDualSimulation inc(&g, q);
  UpdateBatch stream = GenerateUpdateStream(g, p.steps * p.batch_size,
                                            p.insert_fraction, p.seed * 23 + 6);
  for (size_t step = 0; step < p.steps; ++step) {
    UpdateBatch batch(stream.begin() + step * p.batch_size,
                      stream.begin() + (step + 1) * p.batch_size);
    auto delta = inc.ApplyBatch(batch);
    ASSERT_TRUE(delta.ok()) << delta.status();
    ASSERT_TRUE(inc.Snapshot() == ComputeDualSimulation(g, q))
        << "diverged at step " << step << " seed " << p.seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Streams, IncDualStreamSweep,
    ::testing::Values(StreamParam{1, 0.5, 12, 1, 2},   // unit updates
                      StreamParam{2, 0.8, 10, 1, 3},   // insert heavy
                      StreamParam{3, 0.2, 10, 1, 3},   // delete heavy
                      StreamParam{4, 0.5, 6, 6, 2},    // batches
                      StreamParam{5, 0.5, 4, 20, 3},   // large batches
                      StreamParam{6, 1.0, 8, 4, 1},    // inserts only, bound 1
                      StreamParam{7, 0.0, 8, 4, 4}));  // deletes only

TEST(IncDualTest, GrowthWithStream) {
  Graph g = gen::CollaborationNetwork({.num_people = 60, .num_teams = 15, .seed = 9});
  Pattern q = gen::TeamQuery(0);
  IncrementalDualSimulation inc(&g, q);
  for (int round = 0; round < 3; ++round) {
    NodeId v = g.AddNode("SD");
    g.SetAttr(v, "experience", AttrValue(5));
    inc.OnNodeAdded(v);
    ASSERT_TRUE(inc.Snapshot() == ComputeDualSimulation(g, q)) << round;
    UpdateBatch batch{GraphUpdate::Insert(static_cast<NodeId>(round * 2), v),
                      GraphUpdate::Insert(v, static_cast<NodeId>(round * 2 + 1))};
    ASSERT_TRUE(inc.ApplyBatch(batch).ok());
    ASSERT_TRUE(inc.Snapshot() == ComputeDualSimulation(g, q)) << round;
  }
}

}  // namespace
}  // namespace expfinder
