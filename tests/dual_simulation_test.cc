#include <gtest/gtest.h>

#include "src/generator/generators.h"
#include "src/graph/graph_snapshot.h"
#include "src/matching/bounded_simulation.h"
#include "src/matching/match_context.h"

// Bounded dual simulation, the matcher's MatchSemantics::kDualSimulation;
// the oracle sweep is MatcherSweep in bounded_simulation_test.cc.

namespace expfinder {
namespace {

constexpr MatchSemantics kDual = MatchSemantics::kDualSimulation;

MatchRelation Dual(const Graph& g, const Pattern& q, const MatchOptions& options = {}) {
  return ComputeBoundedSimulation(g, q, options, kDual);
}

TEST(DualSimulationTest, ParentConstraintPrunes) {
  // a[A] -> b[B]: B1 has a parent A, B2 does not. Bounded simulation keeps
  // both B's reachable... only via parents; dual additionally requires the
  // parent for b-matches.
  Graph g;
  g.AddNode("A");  // 0
  g.AddNode("B");  // 1 (child of 0)
  g.AddNode("B");  // 2 (orphan)
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  PatternBuilder b;
  auto a = b.Node("A", "a").Output();
  auto bb = b.Node("B", "b");
  b.Edge(a, bb, 1);
  Pattern q = b.Build().value();

  MatchRelation bounded = ComputeBoundedSimulation(g, q);
  MatchRelation dual = Dual(g, q);
  // Bounded simulation: B2 matches b (no out-constraints on b).
  EXPECT_TRUE(bounded.Contains(1, 2));
  // Dual simulation: B2 has no A-parent, so it is pruned.
  EXPECT_FALSE(dual.Contains(1, 2));
  EXPECT_TRUE(dual.Contains(1, 1));
  EXPECT_TRUE(dual.Contains(0, 0));
}

TEST(DualSimulationTest, Fig1WithStrayTester) {
  // On Fig.1 itself, every match has proper ancestors: dual == bounded.
  Graph g = gen::BuildFig1Graph();
  Pattern q = gen::BuildFig1Pattern();
  EXPECT_TRUE(Dual(g, q) == ComputeBoundedSimulation(g, q));

  // Add a stray tester nobody collaborates with: bounded simulation admits
  // him (ST has no out-edges in Q), dual rejects him.
  NodeId tom = g.AddNode("ST");
  g.SetAttr(tom, "name", AttrValue("Tom"));
  g.SetAttr(tom, "experience", AttrValue(3));
  MatchRelation bounded = ComputeBoundedSimulation(g, q);
  MatchRelation dual = Dual(g, q);
  auto st = *q.FindNode("ST");
  EXPECT_TRUE(bounded.Contains(st, tom));
  EXPECT_FALSE(dual.Contains(st, tom));
  EXPECT_TRUE(dual.Contains(st, gen::Fig1::kEva));
}

TEST(DualSimulationTest, ContainedInBoundedSimulation) {
  for (uint64_t seed : {1ULL, 5ULL, 9ULL}) {
    Graph g = gen::ErdosRenyi(60, 240, seed);
    for (int i = 0; i < 4; ++i) {
      Pattern q = gen::RandomPattern(4, 5, 3, 0.4, seed * 41 + i);
      MatchRelation dual = Dual(g, q);
      MatchRelation bounded = ComputeBoundedSimulation(g, q);
      for (const auto& [u, v] : dual.AllPairs()) {
        EXPECT_TRUE(bounded.Contains(u, v)) << "(" << u << "," << v << ")";
      }
    }
  }
}

TEST(DualSimulationTest, NoInEdgesReducesToBoundedSimulation) {
  // A star pattern (root with out-edges only, leaves without out-edges):
  // the root has no parent constraints, but the leaves do — dual may prune
  // leaves. For a *single-node* pattern the two semantics coincide.
  Graph g = gen::CollaborationNetwork({.num_people = 120, .num_teams = 30, .seed = 3});
  PatternBuilder b;
  b.Node("SA", "sa").Where("experience", CmpOp::kGe, 3).Output();
  Pattern q = b.Build().value();
  EXPECT_TRUE(Dual(g, q) == ComputeBoundedSimulation(g, q));
}

TEST(DualSimulationTest, CyclicPatternBothDirections) {
  // 2-cycle pattern requires both support directions; data: a 2-cycle plus
  // a dangling chain.
  Graph g;
  g.AddNode("A");  // 0
  g.AddNode("B");  // 1
  g.AddNode("A");  // 2: A -> B edge into cycle's B but no back edge
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ASSERT_TRUE(g.AddEdge(1, 0).ok());
  ASSERT_TRUE(g.AddEdge(2, 1).ok());
  PatternBuilder b;
  auto a = b.Node("A", "a").Output();
  auto bb = b.Node("B", "b");
  b.Edge(a, bb, 1).Edge(bb, a, 1);
  Pattern q = b.Build().value();
  MatchRelation dual = Dual(g, q);
  EXPECT_TRUE(dual.Contains(0, 0));
  EXPECT_TRUE(dual.Contains(1, 1));
  // Node 2 has the required b-child (node 1), so *bounded* simulation keeps
  // it — out-constraints only. Dual simulation additionally requires a
  // B-parent within 1 hop (pattern edge b->a): node 2 has no in-edges, so
  // it is pruned.
  EXPECT_FALSE(dual.Contains(0, 2));
  EXPECT_TRUE(ComputeBoundedSimulation(g, q).Contains(0, 2));
}

TEST(DualSimulationTest, BoundedPathsInBothDirections) {
  // Parent constraint across 2 hops: A -> X -> B with pattern a -2-> b.
  Graph g;
  g.AddNode("A");
  g.AddNode("X");
  g.AddNode("B");
  g.AddNode("B");  // orphan B
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ASSERT_TRUE(g.AddEdge(1, 2).ok());
  PatternBuilder b;
  auto a = b.Node("A", "a").Output();
  auto bb = b.Node("B", "b");
  b.Edge(a, bb, 2);
  Pattern q = b.Build().value();
  MatchRelation dual = Dual(g, q);
  EXPECT_TRUE(dual.Contains(1, 2));   // has the 2-hop ancestor
  EXPECT_FALSE(dual.Contains(1, 3));  // orphan pruned
}

TEST(DualSimulationTest, LabelIndexOffMatchesOn) {
  Graph g = gen::TwitterLike({.n = 300, .out_per_node = 4, .seed = 11});
  for (int i = 0; i < 3; ++i) {
    Pattern q = gen::RandomPattern(4, 4, 2, 0.4, 900 + i);
    MatchOptions on, off;
    off.use_label_index = false;
    EXPECT_TRUE(Dual(g, q, on) == Dual(g, q, off));
  }
}

// Regression: the seeding loop sizes a context's BFS buffers only for
// pattern nodes with edges, so before refinement sized them itself, an
// edge-less pattern on a fresh MatchContext indexed an empty buffer deque
// (a -D_GLIBCXX_ASSERTIONS build aborts on it). Both semantics, both forms.
TEST(DualSimulationTest, EdgeLessPatternOnFreshContext) {
  Graph g = gen::BuildFig1Graph();
  PatternBuilder b;
  b.Node("SA", "a").Output();
  b.Node("SD", "d");
  Pattern q = b.Build().value();
  ASSERT_EQ(q.NumEdges(), 0u);
  const std::vector<NodeId> sa = g.NodesWithLabel(*g.FindLabel("SA"));
  const std::vector<NodeId> sd = g.NodesWithLabel(*g.FindLabel("SD"));
  SnapshotPtr snap = g.Publish();
  auto check = [&](const MatchRelation& m) {
    EXPECT_EQ(m.MatchesOf(0), sa);
    EXPECT_EQ(m.MatchesOf(1), sd);
  };
  // The one-shot form constructs its own fresh context.
  check(ComputeBoundedSimulation(g, q));
  check(Dual(g, q));
  MatchContext bounded_ctx, dual_ctx;
  check(ComputeBoundedSimulation(snap, q, {}, &bounded_ctx));
  check(ComputeBoundedSimulation(snap, q, {}, &dual_ctx, kDual));
}

}  // namespace
}  // namespace expfinder
