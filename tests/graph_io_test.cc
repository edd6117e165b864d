#include <gtest/gtest.h>

#include <sstream>

#include "src/generator/generators.h"
#include "src/graph/graph_io.h"

namespace expfinder {
namespace {

void ExpectGraphsEqual(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.NumNodes(), b.NumNodes());
  ASSERT_EQ(a.NumEdges(), b.NumEdges());
  for (NodeId v = 0; v < a.NumNodes(); ++v) {
    EXPECT_EQ(a.NodeLabelName(v), b.NodeLabelName(v)) << v;
    auto outs_a = a.OutNeighbors(v);
    auto outs_b = b.OutNeighbors(v);
    std::sort(outs_a.begin(), outs_a.end());
    std::sort(outs_b.begin(), outs_b.end());
    EXPECT_EQ(outs_a, outs_b) << v;
    ASSERT_EQ(a.Attrs(v).size(), b.Attrs(v).size()) << v;
    for (const auto& [key, value] : a.Attrs(v)) {
      const AttrValue* other = b.GetAttr(v, a.AttrKeyName(key));
      ASSERT_NE(other, nullptr) << a.AttrKeyName(key);
      EXPECT_TRUE(value.Equals(*other));
    }
  }
}

TEST(GraphIoTest, RoundTripFig1) {
  Graph g = gen::BuildFig1Graph();
  std::ostringstream os;
  ASSERT_TRUE(SaveGraphText(g, os).ok());
  std::istringstream is(os.str());
  auto loaded = LoadGraphText(is);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectGraphsEqual(g, loaded.value());
}

TEST(GraphIoTest, RoundTripGenerated) {
  Graph g = gen::ErdosRenyi(50, 200, 7);
  std::ostringstream os;
  ASSERT_TRUE(SaveGraphText(g, os).ok());
  std::istringstream is(os.str());
  auto loaded = LoadGraphText(is);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectGraphsEqual(g, loaded.value());
}

TEST(GraphIoTest, LabelsWithSpacesAndQuotes) {
  Graph g;
  NodeId v = g.AddNode("System Architect");
  g.SetAttr(v, "note", AttrValue("says \"hi\" daily"));
  std::ostringstream os;
  ASSERT_TRUE(SaveGraphText(g, os).ok());
  std::istringstream is(os.str());
  auto loaded = LoadGraphText(is);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->NodeLabelName(0), "System Architect");
  EXPECT_EQ(loaded->GetAttr(0, "note")->AsString(), "says \"hi\" daily");
}

TEST(GraphIoTest, ParsesMinimalHandWrittenInput) {
  std::istringstream is(
      "# comment\n"
      "\n"
      "node 0 SA experience=5\n"
      "node 1 \"SD\" name=\"Dan\" senior=false\n"
      "edge 0 1\n");
  auto g = LoadGraphText(is);
  ASSERT_TRUE(g.ok()) << g.status();
  EXPECT_EQ(g->NumNodes(), 2u);
  EXPECT_EQ(g->NumEdges(), 1u);
  EXPECT_EQ(g->NodeLabelName(0), "SA");
  EXPECT_EQ(g->GetAttr(0, "experience")->AsInt(), 5);
  EXPECT_EQ(g->GetAttr(1, "name")->AsString(), "Dan");
  EXPECT_FALSE(g->GetAttr(1, "senior")->AsBool());
}

TEST(GraphIoTest, RejectsOutOfOrderNodeIds) {
  std::istringstream is("node 1 A\n");
  auto g = LoadGraphText(is);
  EXPECT_TRUE(g.status().IsCorruption());
}

TEST(GraphIoTest, RejectsEdgeOutOfRange) {
  std::istringstream is("node 0 A\nedge 0 5\n");
  EXPECT_TRUE(LoadGraphText(is).status().IsCorruption());
}

TEST(GraphIoTest, RejectsDuplicateEdge) {
  std::istringstream is("node 0 A\nnode 1 B\nedge 0 1\nedge 0 1\n");
  EXPECT_TRUE(LoadGraphText(is).status().IsCorruption());
}

TEST(GraphIoTest, RejectsBadAttribute) {
  std::istringstream is("node 0 A =5\n");
  EXPECT_TRUE(LoadGraphText(is).status().IsCorruption());
  std::istringstream is2("node 0 A exp=\n");
  EXPECT_TRUE(LoadGraphText(is2).status().IsCorruption());
}

TEST(GraphIoTest, RejectsUnknownDirective) {
  std::istringstream is("vertex 0 A\n");
  EXPECT_TRUE(LoadGraphText(is).status().IsCorruption());
}

TEST(GraphIoTest, RejectsNodeCountMismatch) {
  std::istringstream is("nodes 3\nnode 0 A\n");
  EXPECT_TRUE(LoadGraphText(is).status().IsCorruption());
}

TEST(TokenizeTest, RespectsQuotes) {
  auto tokens = TokenizeRespectingQuotes("a \"b c\" d=\"e f\" g");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0], "a");
  EXPECT_EQ(tokens[1], "\"b c\"");
  EXPECT_EQ(tokens[2], "d=\"e f\"");
  EXPECT_EQ(tokens[3], "g");
}

TEST(TokenizeTest, EscapedQuoteInsideToken) {
  auto tokens = TokenizeRespectingQuotes("x=\"a \\\" b\"");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0], "x=\"a \\\" b\"");
}

TEST(TokenizeTest, EmptyAndWhitespaceOnly) {
  EXPECT_TRUE(TokenizeRespectingQuotes("").empty());
  EXPECT_TRUE(TokenizeRespectingQuotes("   \t ").empty());
}

}  // namespace
}  // namespace expfinder
