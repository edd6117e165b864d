#include <gtest/gtest.h>

#include "src/generator/generators.h"
#include "src/matching/bounded_simulation.h"

namespace expfinder {
namespace {

// Graph simulation as bounded simulation's bound-1 case; the oracle sweep is
// MatcherSweep in bounded_simulation_test.cc.

// Data: A0 -> B0, A1 (no edge). Pattern: a[A] -> b[B], output a.
TEST(SimulationTest, EdgeRequirementPrunes) {
  Graph g;
  g.AddNode("A");
  g.AddNode("B");
  g.AddNode("A");
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  PatternBuilder b;
  auto a = b.Node("A", "a").Output();
  auto bb = b.Node("B", "b");
  b.Edge(a, bb);
  Pattern q = b.Build().value();

  MatchRelation m = ComputeBoundedSimulation(g, q);
  EXPECT_EQ(m.MatchesOf(0), (std::vector<NodeId>{0}));
  EXPECT_EQ(m.MatchesOf(1), (std::vector<NodeId>{1}));
  EXPECT_FALSE(m.Contains(0, 2));
}

TEST(SimulationTest, EmptyWhenAnyNodeUnmatched) {
  Graph g;
  g.AddNode("A");
  PatternBuilder b;
  auto a = b.Node("A", "a").Output();
  auto c = b.Node("C", "c");
  b.Edge(a, c);
  Pattern q = b.Build().value();
  MatchRelation m = ComputeBoundedSimulation(g, q);
  EXPECT_TRUE(m.IsEmpty());
  EXPECT_TRUE(m.MatchesOf(0).empty());
}

TEST(SimulationTest, CyclicPatternOnCyclicData) {
  // Data: 0 <-> 1 (A-B cycle) and chain 2 -> 3 (A -> B, no back edge).
  Graph g;
  g.AddNode("A");
  g.AddNode("B");
  g.AddNode("A");
  g.AddNode("B");
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ASSERT_TRUE(g.AddEdge(1, 0).ok());
  ASSERT_TRUE(g.AddEdge(2, 3).ok());
  PatternBuilder b;
  auto a = b.Node("A", "a").Output();
  auto bb = b.Node("B", "b");
  b.Edge(a, bb).Edge(bb, a);
  Pattern q = b.Build().value();

  MatchRelation m = ComputeBoundedSimulation(g, q);
  EXPECT_EQ(m.MatchesOf(0), (std::vector<NodeId>{0}));
  EXPECT_EQ(m.MatchesOf(1), (std::vector<NodeId>{1}));
}

TEST(SimulationTest, SelfLoopPattern) {
  Graph g;
  g.AddNode("A");  // self loop
  g.AddNode("A");  // no loop
  ASSERT_TRUE(g.AddEdge(0, 0).ok());
  PatternBuilder b;
  auto a = b.Node("A", "a").Output();
  b.Edge(a, a);
  Pattern q = b.Build().value();
  MatchRelation m = ComputeBoundedSimulation(g, q);
  EXPECT_EQ(m.MatchesOf(0), (std::vector<NodeId>{0}));
}

TEST(SimulationTest, ConditionsRestrictCandidates) {
  Graph g;
  g.AddNode("A");
  g.AddNode("A");
  g.SetAttr(0, "experience", AttrValue(7));
  g.SetAttr(1, "experience", AttrValue(3));
  PatternBuilder b;
  b.Node("A", "a").Where("experience", CmpOp::kGe, 5).Output();
  Pattern q = b.Build().value();
  MatchRelation m = ComputeBoundedSimulation(g, q);
  EXPECT_EQ(m.MatchesOf(0), (std::vector<NodeId>{0}));
}

TEST(SimulationTest, WildcardLabelMatchesEverything) {
  Graph g;
  g.AddNode("A");
  g.AddNode("B");
  PatternBuilder b;
  b.Node("", "any").Output();
  Pattern q = b.Build().value();
  MatchRelation m = ComputeBoundedSimulation(g, q);
  EXPECT_EQ(m.MatchesOf(0).size(), 2u);
}

TEST(SimulationTest, UnknownLabelYieldsEmpty) {
  Graph g;
  g.AddNode("A");
  PatternBuilder b;
  b.Node("Z", "z").Output();
  Pattern q = b.Build().value();
  EXPECT_TRUE(ComputeBoundedSimulation(g, q).IsEmpty());
}

TEST(SimulationTest, LabelIndexOffMatchesOn) {
  Graph g = gen::CollaborationNetwork({});
  for (int i = 0; i < 3; ++i) {
    Pattern q = gen::TeamQuery(i).IsSimulationPattern()
                    ? gen::TeamQuery(i)
                    : gen::RandomPattern(4, 4, 1, 0.5, 100 + i);
    MatchOptions on, off;
    off.use_label_index = false;
    EXPECT_TRUE(ComputeBoundedSimulation(g, q, on) ==
                ComputeBoundedSimulation(g, q, off))
        << i;
  }
}

}  // namespace
}  // namespace expfinder
