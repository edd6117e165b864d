// IncrementalBoundedSimulation under every semantics it maintains: bounded
// simulation (IncBoundedTest), graph simulation as its bound-1 case
// (IncSimulationTest) and dual simulation (IncDualTest), plus the update
// model it consumes (UpdateTest).

#include <gtest/gtest.h>

#include <ostream>

#include "src/generator/generators.h"
#include "src/incremental/inc_bounded.h"
#include "src/matching/bounded_simulation.h"
#include "src/matching/simulation.h"

namespace expfinder {
namespace {

constexpr MatchSemantics kDual = MatchSemantics::kDualSimulation;

MatchRelation Recompute(const Graph& g, const Pattern& q, MatchSemantics semantics) {
  return ComputeBoundedSimulation(g, q, {}, semantics);
}

TEST(UpdateTest, ToStringAndApply) {
  Graph g;
  g.AddNode("A");
  g.AddNode("B");
  GraphUpdate ins = GraphUpdate::Insert(0, 1);
  EXPECT_EQ(ins.ToString(), "+(0,1)");
  EXPECT_TRUE(ApplyUpdate(&g, ins).ok());
  EXPECT_TRUE(g.HasEdge(0, 1));
  GraphUpdate del = GraphUpdate::Delete(0, 1);
  EXPECT_EQ(del.ToString(), "-(0,1)");
  EXPECT_TRUE(ApplyUpdate(&g, del).ok());
  EXPECT_FALSE(g.HasEdge(0, 1));
  EXPECT_TRUE(ApplyUpdate(&g, del).IsNotFound());
}

TEST(UpdateTest, GeneratedStreamIsSequentiallyApplicable) {
  Graph g = gen::ErdosRenyi(40, 160, 3);
  for (double frac : {0.0, 0.3, 0.5, 1.0}) {
    Graph copy = g;
    UpdateBatch batch = GenerateUpdateStream(g, 200, frac, 99);
    ASSERT_EQ(batch.size(), 200u);
    EXPECT_TRUE(ValidateBatch(copy, batch).ok()) << "fraction " << frac;
    EXPECT_TRUE(ApplyBatch(&copy, batch).ok()) << "fraction " << frac;
  }
}

TEST(UpdateTest, InsertFractionRespected) {
  Graph g = gen::ErdosRenyi(50, 400, 5);
  UpdateBatch batch = GenerateUpdateStream(g, 400, 0.75, 7);
  size_t inserts = 0;
  for (const auto& u : batch) inserts += u.kind == GraphUpdate::Kind::kInsertEdge;
  EXPECT_NEAR(static_cast<double>(inserts) / batch.size(), 0.75, 0.08);
}

TEST(UpdateTest, ValidateBatchReplaysThePrefixWithoutMutating) {
  Graph g;
  g.AddNode("A");
  g.AddNode("B");
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  const uint64_t version = g.version();
  // Each update is checked against the graph as the batch's prefix left it.
  EXPECT_TRUE(ValidateBatch(g, {GraphUpdate::Delete(0, 1), GraphUpdate::Insert(0, 1)}).ok());
  EXPECT_TRUE(ValidateBatch(g, {GraphUpdate::Delete(0, 1), GraphUpdate::Delete(0, 1)})
                  .IsNotFound());
  EXPECT_TRUE(ValidateBatch(g, {GraphUpdate::Insert(1, 0), GraphUpdate::Insert(1, 0)})
                  .IsAlreadyExists());
  EXPECT_TRUE(ValidateBatch(g, {GraphUpdate::Insert(0, 2)}).IsInvalidArgument());
  EXPECT_EQ(g.version(), version);
  EXPECT_TRUE(g.HasEdge(0, 1));
}

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

// A batch the graph would reject must leave the graph and the maintainer as
// they were, whichever of its updates fails: ApplyBatch validates the whole
// batch before PreUpdate seeds from it and before the graph mutates. A
// valid deletion ahead of the rejected one would otherwise be applied with
// no PostUpdate to follow, leaving the relation stale.
void CheckInvalidBatchRollsBackAndStaysReusable(MatchSemantics semantics) {
  Graph g = gen::ErdosRenyi(60, 240, 41);
  Graph twin_g = g;
  PatternBuilder b;
  auto sd = b.Node("SD", "sd").Output();
  auto st = b.Node("ST", "st");
  auto ba = b.Node("BA", "ba");
  b.Edge(sd, st, 2).Edge(st, sd, 2).Edge(sd, ba, 2);
  Pattern q = b.Build().value();
  IncrementalBoundedSimulation inc(&g, q, {}, semantics);
  IncrementalBoundedSimulation twin(&twin_g, q, {}, semantics);  // never sees a bad batch
  const MatchRelation before = inc.Snapshot();
  ASSERT_FALSE(before.IsEmpty());
  const uint64_t version = g.version();

  NodeId src = 0;
  while (g.OutDegree(src) == 0) ++src;
  const NodeId dst = g.OutNeighbors(src).front();
  NodeId missing = 1;
  while (missing == src || g.HasEdge(src, missing)) ++missing;
  const UpdateBatch missing_first{GraphUpdate::Delete(src, missing),
                                  GraphUpdate::Delete(src, dst)};
  const UpdateBatch valid_first{GraphUpdate::Delete(src, dst),
                                GraphUpdate::Delete(src, missing)};
  for (const UpdateBatch& bad : {missing_first, valid_first}) {
    EXPECT_FALSE(inc.ApplyBatch(bad).ok()) << bad[0].ToString();
    EXPECT_EQ(g.version(), version) << bad[0].ToString();
    EXPECT_TRUE(g.HasEdge(src, dst)) << bad[0].ToString();
    EXPECT_TRUE(inc.Snapshot() == before) << bad[0].ToString();
  }

  UpdateBatch stream = GenerateUpdateStream(g, 12, 0.5, 43);
  for (size_t i = 0; i < stream.size(); i += 3) {
    UpdateBatch batch(stream.begin() + i, stream.begin() + i + 3);
    ASSERT_TRUE(inc.ApplyBatch(batch).ok());
    ASSERT_TRUE(twin.ApplyBatch(batch).ok());
    ASSERT_TRUE(inc.Snapshot() == Recompute(g, q, semantics)) << "at " << i;
    // Seeds left over from a failed batch would show up as extra |AFF|.
    EXPECT_EQ(inc.last_affected_size(), twin.last_affected_size()) << "at " << i;
  }
}

TEST(IncBoundedTest, InvalidBatchRollsBackAndStaysReusable) {
  CheckInvalidBatchRollsBackAndStaysReusable(MatchSemantics::kBoundedSimulation);
}

TEST(IncDualTest, InvalidBatchRollsBackAndStaysReusable) {
  CheckInvalidBatchRollsBackAndStaysReusable(kDual);
}

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

// Graph simulation is the bound-1 case: the same maintainer, checked against
// ComputeSimulationNaive.

TEST(IncSimulationTest, InitialStateMatchesBatch) {
  Graph g = gen::CollaborationNetwork({.num_people = 150, .num_teams = 30, .seed = 4});
  Pattern q = gen::RandomPattern(4, 5, 1, 0.4, 42);
  IncrementalBoundedSimulation inc(&g, q);
  EXPECT_TRUE(inc.Snapshot() == ComputeSimulationNaive(g, q));
}

TEST(IncSimulationTest, InsertEnablesMatchChain) {
  // Pattern a[A]->b[B]; data A0 B1 disconnected, then insert the edge.
  Graph g;
  g.AddNode("A");
  g.AddNode("B");
  PatternBuilder b;
  auto a = b.Node("A", "a").Output();
  auto bb = b.Node("B", "b");
  b.Edge(a, bb);
  Pattern q = b.Build().value();
  IncrementalBoundedSimulation inc(&g, q);
  EXPECT_TRUE(inc.Snapshot().IsEmpty());
  auto delta = inc.ApplyBatch({GraphUpdate::Insert(0, 1)});
  ASSERT_TRUE(delta.ok());
  EXPECT_TRUE(inc.Snapshot() == ComputeSimulationNaive(g, q));
  EXPECT_FALSE(inc.Snapshot().IsEmpty());
}

TEST(IncSimulationTest, CyclicMutualDependencyRestoredTogether) {
  // The killer case for naive bottom-up insertion: pattern u->u self loop,
  // data chain 0 -> 1; inserting 1 -> 0 creates the support cycle, and both
  // nodes must (re)enter the relation together.
  Graph g;
  g.AddNode("A");
  g.AddNode("A");
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  PatternBuilder b;
  auto a = b.Node("A", "a").Output();
  b.Edge(a, a);
  Pattern q = b.Build().value();
  IncrementalBoundedSimulation inc(&g, q);
  EXPECT_TRUE(inc.Snapshot().IsEmpty());
  auto delta = inc.ApplyBatch({GraphUpdate::Insert(1, 0)});
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(delta->added.size(), 2u);
  EXPECT_TRUE(inc.Snapshot() == ComputeSimulationNaive(g, q));
  EXPECT_EQ(inc.Snapshot().MatchesOf(0), (std::vector<NodeId>{0, 1}));
}

TEST(IncSimulationTest, DeleteCascadesRemovals) {
  // Chain A->B->C with pattern a->b->c: deleting the last edge kills all.
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
  IncrementalBoundedSimulation inc(&g, q);
  EXPECT_FALSE(inc.Snapshot().IsEmpty());
  auto delta = inc.ApplyBatch({GraphUpdate::Delete(1, 2)});
  ASSERT_TRUE(delta.ok());
  EXPECT_TRUE(inc.Snapshot().IsEmpty());
  EXPECT_TRUE(inc.Snapshot() == ComputeSimulationNaive(g, q));
  // Internal cascade removed both (b,1)-support and (a,0).
  EXPECT_GE(delta->removed.size(), 2u);
}

TEST(IncSimulationTest, NetDeltaCancelsInsertThenDelete) {
  Graph g;
  g.AddNode("A");
  g.AddNode("B");
  PatternBuilder b;
  auto a = b.Node("A", "a").Output();
  auto bb = b.Node("B", "b");
  b.Edge(a, bb);
  Pattern q = b.Build().value();
  IncrementalBoundedSimulation inc(&g, q);
  auto delta = inc.ApplyBatch(
      {GraphUpdate::Insert(0, 1), GraphUpdate::Delete(0, 1)});
  ASSERT_TRUE(delta.ok());
  EXPECT_TRUE(delta->Empty()) << "added=" << delta->added.size()
                              << " removed=" << delta->removed.size();
  EXPECT_TRUE(inc.Snapshot().IsEmpty());
}

TEST(IncSimulationTest, InvalidBatchFailsCleanly) {
  Graph g = gen::ErdosRenyi(20, 40, 1);
  Pattern q = gen::RandomPattern(3, 3, 1, 0.2, 5);
  IncrementalBoundedSimulation inc(&g, q);
  const MatchRelation before = inc.Snapshot();
  // Delete a non-existent edge: the batch is rejected and nothing changes.
  NodeId a = 0, b = 1;
  while (g.HasEdge(a, b)) b = (b + 1) % 20;
  auto delta = inc.ApplyBatch({GraphUpdate::Delete(a, b)});
  EXPECT_FALSE(delta.ok());
  EXPECT_TRUE(inc.Snapshot() == before);
}

// Dual simulation: parents must match too, so every phase also walks the
// backward windows.

TEST(IncDualTest, InitialStateMatchesBatch) {
  Graph g = gen::CollaborationNetwork({.num_people = 120, .num_teams = 25, .seed = 3});
  Pattern q = gen::RandomPattern(4, 5, 3, 0.4, 19);
  IncrementalBoundedSimulation inc(&g, q, {}, kDual);
  EXPECT_TRUE(inc.Snapshot() == Recompute(g, q, kDual));
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
  IncrementalBoundedSimulation inc(&g, q, {}, kDual);
  EXPECT_TRUE(inc.Snapshot().IsEmpty());
  auto delta = inc.ApplyBatch({GraphUpdate::Insert(0, 1)});
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(delta->added.size(), 2u);
  EXPECT_TRUE(inc.Snapshot() == Recompute(g, q, kDual));
}

TEST(IncDualTest, DeleteCascadesThroughBothSides) {
  // Chain A -> B -> C with pattern a->b->c (bounds 1): removing the first
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
  IncrementalBoundedSimulation inc(&g, q, {}, kDual);
  EXPECT_FALSE(inc.Snapshot().IsEmpty());
  auto delta = inc.ApplyBatch({GraphUpdate::Delete(0, 1)});
  ASSERT_TRUE(delta.ok());
  EXPECT_TRUE(inc.Snapshot().IsEmpty());
  EXPECT_TRUE(inc.Snapshot() == Recompute(g, q, kDual));
}

TEST(IncDualTest, Fig1StrayTesterConnectsIncrementally) {
  Graph g = gen::BuildFig1Graph();
  Pattern q = gen::BuildFig1Pattern();
  IncrementalBoundedSimulation inc(&g, q, {}, kDual);
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
  EXPECT_TRUE(inc.Snapshot() == Recompute(g, q, kDual));
}

TEST(IncDualTest, GrowthWithStream) {
  Graph g = gen::CollaborationNetwork({.num_people = 60, .num_teams = 15, .seed = 9});
  Pattern q = gen::TeamQuery(0);
  IncrementalBoundedSimulation inc(&g, q, {}, kDual);
  for (int round = 0; round < 3; ++round) {
    NodeId v = g.AddNode("SD");
    g.SetAttr(v, "experience", AttrValue(5));
    inc.OnNodeAdded(v);
    ASSERT_TRUE(inc.Snapshot() == Recompute(g, q, kDual)) << round;
    UpdateBatch batch{GraphUpdate::Insert(static_cast<NodeId>(round * 2), v),
                      GraphUpdate::Insert(v, static_cast<NodeId>(round * 2 + 1))};
    ASSERT_TRUE(inc.ApplyBatch(batch).ok());
    ASSERT_TRUE(inc.Snapshot() == Recompute(g, q, kDual)) << round;
  }
}

struct StreamParam {
  uint64_t seed;
  size_t edges;  // of the ErdosRenyi(50, edges) graph
  double insert_fraction;
  size_t steps;
  size_t batch_size;
  Distance max_bound;
  MatchSemantics semantics;
};

// Names the CTest row (e.g. seed4_m250_b2_dual) instead of the struct's raw
// bytes.
void PrintTo(const StreamParam& p, std::ostream* os) {
  *os << "seed" << p.seed << "_m" << p.edges << "_b" << p.max_bound
      << (p.semantics == kDual ? "_dual" : "_bounded");
}

class IncBoundedStreamSweep : public ::testing::TestWithParam<StreamParam> {};

// The central property: after arbitrary update streams (mixed inserts and
// deletes, cyclic patterns), the maintained relation equals recomputation
// under the maintained semantics. Two empty relations compare equal whatever
// the maintainer does, so patterns draw the graph's three commonest labels,
// each row's edge count is set so that its relation is nonempty in most
// states, and the test asserts that it is.
TEST_P(IncBoundedStreamSweep, AlwaysEqualsBatchRecomputation) {
  const StreamParam p = GetParam();
  // Dual rows draw other patterns and streams than bounded rows of the same
  // seed, so the two semantics do not replay one instance.
  const bool dual = p.semantics == kDual;
  const bool simulation = !dual && p.max_bound == 1;
  Graph g = gen::ErdosRenyi(50, p.edges, p.seed);
  gen::LabelModel common = gen::DefaultExpertiseModel();
  common.labels.resize(3);
  Pattern q = gen::RandomPattern(4, 5, p.max_bound, 0.4,
                                 dual ? p.seed * 19 + 5 : p.seed * 11 + 3, common);
  IncrementalBoundedSimulation inc(&g, q, {}, p.semantics);
  UpdateBatch stream = GenerateUpdateStream(g, p.steps * p.batch_size, p.insert_fraction,
                                            dual ? p.seed * 23 + 6 : p.seed * 17 + 4);
  size_t nonempty = !inc.Snapshot().IsEmpty();
  for (size_t step = 0; step < p.steps; ++step) {
    UpdateBatch batch(stream.begin() + step * p.batch_size,
                      stream.begin() + (step + 1) * p.batch_size);
    auto delta = inc.ApplyBatch(batch);
    ASSERT_TRUE(delta.ok()) << delta.status();
    ASSERT_TRUE(inc.Snapshot() == Recompute(g, q, p.semantics))
        << "diverged at step " << step << " seed " << p.seed;
    if (simulation) {
      ASSERT_TRUE(inc.Snapshot() == ComputeSimulationNaive(g, q))
          << "diverged from simulation at step " << step << " seed " << p.seed;
    }
    nonempty += !inc.Snapshot().IsEmpty();
  }
  EXPECT_GT(2 * nonempty, p.steps + 1) << "most states must match something";
}

constexpr MatchSemantics kBounded = MatchSemantics::kBoundedSimulation;

INSTANTIATE_TEST_SUITE_P(
    Streams, IncBoundedStreamSweep,
    ::testing::Values(
        // Bounded simulation.
        StreamParam{1, 400, 0.5, 15, 1, 2, kBounded},  // unit, small bounds
        StreamParam{2, 200, 0.8, 12, 1, 3, kBounded},  // insert heavy
        StreamParam{3, 200, 0.2, 12, 1, 3, kBounded},  // delete heavy
        StreamParam{4, 200, 0.5, 8, 6, 2, kBounded},   // batches
        StreamParam{5, 200, 0.5, 4, 25, 3, kBounded},  // large batches
        StreamParam{6, 200, 1.0, 8, 4, 4, kBounded},   // inserts only
        StreamParam{7, 250, 0.0, 8, 4, 4, kBounded},   // deletes only
        StreamParam{8, 500, 0.5, 8, 4, 1, kBounded},   // degenerate bound 1
        // Graph simulation (bound 1).
        StreamParam{1, 400, 0.5, 20, 1, 1, kBounded},  // unit updates
        StreamParam{2, 200, 0.8, 15, 1, 1, kBounded},  // insert heavy
        StreamParam{3, 200, 0.2, 15, 1, 1, kBounded},  // delete heavy
        StreamParam{4, 350, 0.5, 10, 8, 1, kBounded},  // small batches
        StreamParam{5, 350, 0.5, 5, 40, 1, kBounded},  // large batches
        StreamParam{6, 300, 1.0, 10, 5, 1, kBounded},  // inserts only
        StreamParam{7, 300, 0.0, 10, 5, 1, kBounded},  // deletes only
        // Dual simulation.
        StreamParam{1, 200, 0.5, 12, 1, 2, kDual},  // unit updates
        StreamParam{2, 200, 0.8, 10, 1, 3, kDual},  // insert heavy
        StreamParam{3, 250, 0.2, 10, 1, 3, kDual},  // delete heavy
        StreamParam{4, 250, 0.5, 6, 6, 2, kDual},   // batches
        StreamParam{5, 200, 0.5, 4, 20, 3, kDual},  // large batches
        StreamParam{6, 500, 1.0, 8, 4, 1, kDual},   // inserts only, bound 1
        StreamParam{7, 200, 0.0, 8, 4, 4, kDual})); // deletes only

}  // namespace
}  // namespace expfinder
