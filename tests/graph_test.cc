#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <sstream>
#include <string>
#include <utility>

#include "src/graph/csr.h"
#include "src/graph/graph.h"
#include "src/graph/graph_io.h"
#include "src/graph/graph_snapshot.h"

namespace expfinder {
namespace {

Graph Triangle() {
  Graph g;
  g.AddNode("A");
  g.AddNode("B");
  g.AddNode("C");
  EXPECT_TRUE(g.AddEdge(0, 1).ok());
  EXPECT_TRUE(g.AddEdge(1, 2).ok());
  EXPECT_TRUE(g.AddEdge(2, 0).ok());
  return g;
}

TEST(GraphTest, AddNodesAssignsDenseIds) {
  Graph g;
  EXPECT_EQ(g.AddNode("X"), 0u);
  EXPECT_EQ(g.AddNode("Y"), 1u);
  EXPECT_EQ(g.AddNode("X"), 2u);
  EXPECT_EQ(g.NumNodes(), 3u);
  EXPECT_EQ(g.NumEdges(), 0u);
}

TEST(GraphTest, LabelsInternedAndIndexed) {
  Graph g;
  g.AddNode("SA");
  g.AddNode("SD");
  g.AddNode("SA");
  EXPECT_EQ(g.NumLabels(), 2u);
  auto sa = g.FindLabel("SA");
  ASSERT_TRUE(sa.has_value());
  EXPECT_EQ(g.NodesWithLabel(*sa), (std::vector<NodeId>{0, 2}));
  EXPECT_EQ(g.NodeLabelName(1), "SD");
  EXPECT_FALSE(g.FindLabel("ST").has_value());
  EXPECT_TRUE(g.NodesWithLabel(999).empty());
}

TEST(GraphTest, AddEdgeUpdatesAdjacency) {
  Graph g = Triangle();
  EXPECT_EQ(g.NumEdges(), 3u);
  EXPECT_EQ(g.OutNeighbors(0), (std::vector<NodeId>{1}));
  EXPECT_EQ(g.InNeighbors(0), (std::vector<NodeId>{2}));
  EXPECT_EQ(g.OutDegree(1), 1u);
  EXPECT_EQ(g.InDegree(1), 1u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_FALSE(g.HasEdge(1, 0));
}

TEST(GraphTest, AddEdgeRejectsBadInput) {
  Graph g = Triangle();
  EXPECT_TRUE(g.AddEdge(0, 1).IsAlreadyExists());
  EXPECT_TRUE(g.AddEdge(0, 99).IsInvalidArgument());
  EXPECT_TRUE(g.AddEdge(99, 0).IsInvalidArgument());
  EXPECT_EQ(g.NumEdges(), 3u);
}

TEST(GraphTest, SelfLoopAllowed) {
  Graph g;
  g.AddNode("A");
  EXPECT_TRUE(g.AddEdge(0, 0).ok());
  EXPECT_TRUE(g.HasEdge(0, 0));
  EXPECT_EQ(g.OutDegree(0), 1u);
  EXPECT_EQ(g.InDegree(0), 1u);
}

TEST(GraphTest, RemoveEdge) {
  Graph g = Triangle();
  EXPECT_TRUE(g.RemoveEdge(0, 1).ok());
  EXPECT_FALSE(g.HasEdge(0, 1));
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_TRUE(g.OutNeighbors(0).empty());
  EXPECT_TRUE(g.RemoveEdge(0, 1).IsNotFound());
  EXPECT_TRUE(g.RemoveEdge(0, 42).IsInvalidArgument());
}

TEST(GraphTest, RemoveThenReAdd) {
  Graph g = Triangle();
  ASSERT_TRUE(g.RemoveEdge(1, 2).ok());
  ASSERT_TRUE(g.AddEdge(1, 2).ok());
  EXPECT_TRUE(g.HasEdge(1, 2));
  EXPECT_EQ(g.NumEdges(), 3u);
}

TEST(GraphTest, AttributesSetGetOverwrite) {
  Graph g;
  g.AddNode("A");
  g.SetAttr(0, "experience", AttrValue(5));
  g.SetAttr(0, "name", AttrValue("Bob"));
  ASSERT_NE(g.GetAttr(0, "experience"), nullptr);
  EXPECT_EQ(g.GetAttr(0, "experience")->AsInt(), 5);
  g.SetAttr(0, "experience", AttrValue(7));
  EXPECT_EQ(g.GetAttr(0, "experience")->AsInt(), 7);
  EXPECT_EQ(g.Attrs(0).size(), 2u);
  EXPECT_EQ(g.GetAttr(0, "missing"), nullptr);
}

TEST(GraphTest, AttrKeyInterning) {
  Graph g;
  g.AddNode("A");
  g.AddNode("B");
  g.SetAttr(0, "exp", AttrValue(1));
  g.SetAttr(1, "exp", AttrValue(2));
  EXPECT_EQ(g.NumAttrKeys(), 1u);
  auto key = g.FindAttrKey("exp");
  ASSERT_TRUE(key.has_value());
  EXPECT_EQ(g.GetAttr(1, *key)->AsInt(), 2);
  EXPECT_EQ(g.AttrKeyName(*key), "exp");
}

TEST(GraphTest, DisplayNameUsesNameAttr) {
  Graph g;
  g.AddNode("A");
  g.AddNode("B");
  g.SetAttr(0, "name", AttrValue("Alice"));
  EXPECT_EQ(g.DisplayName(0), "Alice");
  EXPECT_EQ(g.DisplayName(1), "v1");
}

TEST(GraphTest, VersionBumpsOnMutation) {
  Graph g;
  uint64_t v0 = g.version();
  g.AddNode("A");
  uint64_t v1 = g.version();
  EXPECT_GT(v1, v0);
  g.AddNode("B");
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  uint64_t v2 = g.version();
  EXPECT_GT(v2, v1);
  g.SetAttr(0, "x", AttrValue(1));
  EXPECT_GT(g.version(), v2);
  uint64_t v3 = g.version();
  ASSERT_TRUE(g.RemoveEdge(0, 1).ok());
  EXPECT_GT(g.version(), v3);
}

TEST(GraphTest, FailedMutationsDoNotBumpVersion) {
  Graph g = Triangle();
  uint64_t v = g.version();
  EXPECT_FALSE(g.AddEdge(0, 1).ok());
  EXPECT_FALSE(g.RemoveEdge(0, 2).ok());
  EXPECT_EQ(g.version(), v);
}

// --- Copy-on-write pages ----------------------------------------------------
//
// Graph stores per-node adjacency and attribute lists in 64-node pages shared
// between copies. PagedGraph() spans four pages (the last one partly filled),
// so every mutator below writes a page that a snapshot or copy shares.

constexpr NodeId kPagedNodes = 200;

Graph PagedGraph() {
  Graph g;
  for (NodeId v = 0; v < kPagedNodes; ++v) {
    g.AddNode(v % 3 == 0 ? "A" : "B");
    g.SetAttr(v, "name", AttrValue("n" + std::to_string(v)));
    if (v % 2 == 0) g.SetAttr(v, "exp", AttrValue(static_cast<int64_t>(v % 7)));
  }
  for (NodeId v = 0; v < kPagedNodes; ++v) {
    g.AddEdgeUnchecked(v, (v + 1) % kPagedNodes);
    (void)g.AddEdge(v, (v * 7 + 3) % kPagedNodes);  // a few repeat: skipped
  }
  return g;
}

std::string Text(const Graph& g) {
  std::ostringstream os;
  EXPECT_TRUE(SaveGraphText(g, os).ok());
  return os.str();
}

using Mutator = std::function<void(Graph*)>;

std::vector<std::pair<std::string, Mutator>> PageMutators() {
  return {
      {"AddEdge", [](Graph* g) { ASSERT_TRUE(g->AddEdge(5, 190).ok()); }},
      {"AddEdgeUnchecked", [](Graph* g) { g->AddEdgeUnchecked(130, 70); }},
      {"RemoveEdge", [](Graph* g) { ASSERT_TRUE(g->RemoveEdge(64, 65).ok()); }},
      {"AddNodeIntoPartlyFilledPage",
       [](Graph* g) {
         NodeId v = g->AddNode("C");
         ASSERT_EQ(v, kPagedNodes);
         g->SetAttr(v, "name", AttrValue("late"));
         ASSERT_TRUE(g->AddEdge(v, 3).ok());
         ASSERT_TRUE(g->AddEdge(150, v).ok());
       }},
      {"AddNodeIntoFreshPage",
       [](Graph* g) {
         NodeId v = kInvalidNode;
         while (g->NumNodes() <= 256) v = g->AddNode("C");  // 256 starts page 4
         ASSERT_EQ(v, 256u);
         g->SetAttr(v, "exp", AttrValue(1));
         ASSERT_TRUE(g->AddEdge(v, 199).ok());
         ASSERT_TRUE(g->AddEdge(0, v).ok());
       }},
      {"SetAttrOverwrite",
       [](Graph* g) { g->SetAttr(70, "name", AttrValue("renamed")); }},
      {"SetAttrNewKey", [](Graph* g) { g->SetAttr(130, "fresh", AttrValue(2.5)); }},
  };
}

// A graph built from scratch with the same operations.
std::string Replayed(const Mutator& mutate) {
  Graph g = PagedGraph();
  mutate(&g);
  return Text(g);
}

TEST(GraphPagesTest, SnapshotIsolatedFromEveryMutator) {
  for (const auto& [name, mutate] : PageMutators()) {
    SCOPED_TRACE(name);
    Graph g = PagedGraph();
    const std::string before = Text(g);
    SnapshotPtr snap = g.Publish();
    mutate(&g);
    EXPECT_EQ(Text(snap->graph()), before);
    EXPECT_EQ(Text(g), Replayed(mutate));
    EXPECT_NE(Text(g), before);
  }
}

TEST(GraphPagesTest, CopyIsolatedFromEveryMutatorInBothDirections) {
  for (const auto& [name, mutate] : PageMutators()) {
    SCOPED_TRACE(name);
    const std::string expected = Replayed(mutate);
    Graph source = PagedGraph();
    const std::string before = Text(source);
    Graph copy = source;
    mutate(&copy);
    EXPECT_EQ(Text(source), before);
    EXPECT_EQ(Text(copy), expected);
    // And the other way round: the source writes, the copy keeps its state.
    Graph source2 = PagedGraph();
    Graph copy2 = source2;
    mutate(&source2);
    EXPECT_EQ(Text(copy2), before);
    EXPECT_EQ(Text(source2), expected);
  }
}

TEST(GraphPagesTest, CopyOfACopyAndCopyAssignment) {
  const auto mutators = PageMutators();
  Graph a = PagedGraph();
  const std::string base = Text(a);
  Graph b = a;
  Graph c = b;
  Graph d;
  d = c;
  mutators[0].second(&c);  // AddEdge
  EXPECT_EQ(Text(a), base);
  EXPECT_EQ(Text(b), base);
  EXPECT_EQ(Text(d), base);
  EXPECT_EQ(Text(c), Replayed(mutators[0].second));
  mutators[2].second(&b);  // RemoveEdge
  EXPECT_EQ(Text(a), base);
  EXPECT_EQ(Text(c), Replayed(mutators[0].second));
  EXPECT_EQ(Text(b), Replayed(mutators[2].second));
  mutators[5].second(&d);  // SetAttrOverwrite
  EXPECT_EQ(Text(a), base);
  EXPECT_EQ(Text(d), Replayed(mutators[5].second));
  // Assigning over a graph that already wrote its own pages.
  c = a;
  EXPECT_EQ(Text(c), base);
  mutators[1].second(&a);  // AddEdgeUnchecked
  EXPECT_EQ(Text(c), base);
  EXPECT_EQ(Text(a), Replayed(mutators[1].second));
}

TEST(GraphPagesTest, BothSidesOfACopyWriteTheSamePage) {
  // Nodes 10 and 20 share page 0; each side writes it differently.
  auto left = [](Graph* g) {
    ASSERT_TRUE(g->AddEdge(10, 20).ok());
    g->SetAttr(10, "name", AttrValue("left"));
  };
  auto right = [](Graph* g) {
    ASSERT_TRUE(g->RemoveEdge(10, 11).ok());
    ASSERT_TRUE(g->AddEdge(20, 10).ok());
    g->SetAttr(20, "name", AttrValue("right"));
  };
  auto left_again = [](Graph* g) {  // the page is a's own by now
    ASSERT_TRUE(g->AddEdge(12, 30).ok());
    g->SetAttr(11, "exp", AttrValue(9));
  };
  Graph a = PagedGraph();
  Graph b = a;
  left(&a);
  right(&b);
  left_again(&a);
  EXPECT_EQ(Text(b), Replayed(right));
  EXPECT_EQ(Text(a), Replayed([&](Graph* g) {
              left(g);
              left_again(g);
            }));
}

TEST(CsrTest, MirrorsGraphTopology) {
  Graph g = Triangle();
  g.AddNode("D");
  ASSERT_TRUE(g.AddEdge(0, 3).ok());
  auto snap = g.Publish();
  const Csr& csr = snap->csr();
  EXPECT_EQ(csr.NumNodes(), g.NumNodes());
  EXPECT_EQ(csr.NumEdges(), g.NumEdges());
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    std::vector<NodeId> out(csr.Out(v).begin(), csr.Out(v).end());
    std::vector<NodeId> expected = g.OutNeighbors(v);
    std::sort(out.begin(), out.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(out, expected) << "node " << v;
    std::vector<NodeId> in(csr.In(v).begin(), csr.In(v).end());
    std::vector<NodeId> expected_in = g.InNeighbors(v);
    std::sort(in.begin(), in.end());
    std::sort(expected_in.begin(), expected_in.end());
    EXPECT_EQ(in, expected_in) << "node " << v;
    EXPECT_EQ(csr.OutDegree(v), g.OutDegree(v));
    EXPECT_EQ(csr.InDegree(v), g.InDegree(v));
  }
}

TEST(CsrTest, EmptyGraph) {
  Graph g;
  auto snap = g.Publish();
  const Csr& csr = snap->csr();
  EXPECT_EQ(csr.NumNodes(), 0u);
  EXPECT_EQ(csr.NumEdges(), 0u);
}

}  // namespace
}  // namespace expfinder
