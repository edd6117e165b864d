#include <gtest/gtest.h>

#include "src/generator/generators.h"
#include "src/query/pattern.h"
#include "src/query/pattern_parser.h"

namespace expfinder {
namespace {

TEST(PatternTest, AddNodeRequiresUniqueName) {
  Pattern p;
  PatternNode a;
  a.name = "a";
  ASSERT_TRUE(p.AddNode(a).ok());
  EXPECT_TRUE(p.AddNode(a).status().IsAlreadyExists());
  PatternNode empty;
  EXPECT_TRUE(p.AddNode(empty).status().IsInvalidArgument());
}

TEST(PatternTest, AddEdgeValidation) {
  Pattern p;
  PatternNode a, b;
  a.name = "a";
  b.name = "b";
  ASSERT_TRUE(p.AddNode(a).ok());
  ASSERT_TRUE(p.AddNode(b).ok());
  EXPECT_TRUE(p.AddEdge(0, 1, 2).ok());
  EXPECT_TRUE(p.AddEdge(0, 1, 3).IsAlreadyExists());
  EXPECT_TRUE(p.AddEdge(0, 5).IsInvalidArgument());
  EXPECT_TRUE(p.AddEdge(0, 1, 0).IsInvalidArgument() ||
              p.AddEdge(1, 0, 0).IsInvalidArgument());
  EXPECT_TRUE(p.AddEdge(1, 0).ok());  // reverse direction is distinct
}

TEST(PatternTest, AdjacencyListsTrackEdges) {
  Pattern q = gen::BuildFig1Pattern();
  auto sa = q.FindNode("SA");
  ASSERT_TRUE(sa.has_value());
  EXPECT_EQ(q.OutEdges(*sa).size(), 2u);
  EXPECT_TRUE(q.InEdges(*sa).empty());
  auto st = q.FindNode("ST");
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(q.InEdges(*st).size(), 2u);
}

TEST(PatternTest, MaxBounds) {
  Pattern q = gen::BuildFig1Pattern();
  EXPECT_EQ(q.MaxBound(), 3u);
  auto sa = q.FindNode("SA");
  EXPECT_EQ(q.MaxOutBound(*sa), 3u);
  auto st = q.FindNode("ST");
  EXPECT_EQ(q.MaxOutBound(*st), 0u);
}

TEST(PatternTest, ValidateRequiresOutput) {
  Pattern p;
  PatternNode a;
  a.name = "a";
  ASSERT_TRUE(p.AddNode(a).ok());
  EXPECT_TRUE(p.Validate().IsInvalidArgument());
  ASSERT_TRUE(p.SetOutput(0).ok());
  EXPECT_TRUE(p.Validate().ok());
  EXPECT_TRUE(p.SetOutput(9).IsInvalidArgument());
  Pattern empty;
  EXPECT_TRUE(empty.Validate().IsInvalidArgument());
}

TEST(PatternTest, IsSimulationPattern) {
  PatternBuilder b;
  auto x = b.Node("A", "x").Output();
  auto y = b.Node("B", "y");
  b.Edge(x, y, 1);
  Pattern p = b.Build().value();
  EXPECT_TRUE(p.IsSimulationPattern());
  EXPECT_FALSE(gen::BuildFig1Pattern().IsSimulationPattern());
}

TEST(PatternBuilderTest, FluentConstruction) {
  PatternBuilder b;
  auto sa = b.Node("SA").Where("experience", CmpOp::kGe, 5).Output();
  auto sd = b.Node("SD", "dev");
  b.Edge(sa, sd, 2);
  auto built = b.Build();
  ASSERT_TRUE(built.ok()) << built.status();
  const Pattern& p = built.value();
  EXPECT_EQ(p.NumNodes(), 2u);
  EXPECT_EQ(p.node(0).conditions.size(), 1u);
  EXPECT_EQ(p.node(1).name, "dev");
  EXPECT_EQ(p.edges()[0].bound, 2u);
}

TEST(PatternBuilderTest, ReportsFirstError) {
  PatternBuilder b;
  auto x = b.Node("A", "x").Output();
  b.Edge(x, x, 1);
  b.Edge(x, x, 1);  // duplicate edge
  EXPECT_TRUE(b.Build().status().IsAlreadyExists());
}

TEST(PatternBuilderTest, MissingOutputFailsBuild) {
  PatternBuilder b;
  b.Node("A", "x");
  EXPECT_TRUE(b.Build().status().IsInvalidArgument());
}

TEST(PatternTextTest, RoundTripFig1) {
  Pattern q = gen::BuildFig1Pattern();
  auto reparsed = ParsePatternText(q.ToText());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(reparsed->ToText(), q.ToText());
}

TEST(PatternTextTest, RoundTripWildcardAndUnbounded) {
  PatternBuilder b;
  auto any = b.Node("", "any").Output();
  auto sd = b.Node("SD", "sd").Where("specialty", CmpOp::kContains, "DB");
  b.Edge(any, sd, kUnboundedEdge);
  Pattern p = b.Build().value();
  auto reparsed = ParsePatternText(p.ToText());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_TRUE(reparsed->node(0).label.empty());
  EXPECT_EQ(reparsed->edges()[0].bound, kUnboundedEdge);
  EXPECT_EQ(reparsed->ToText(), p.ToText());
}

TEST(PatternTextTest, ParsesForwardReferences) {
  auto p = ParsePatternText(
      "edge a b 2\n"
      "node a \"SA\" experience >= 5\n"
      "node b \"SD\"\n"
      "output a\n");
  ASSERT_TRUE(p.ok()) << p.status();
  EXPECT_EQ(p->NumEdges(), 1u);
  EXPECT_EQ(p->node(0).conditions.size(), 1u);
}

TEST(PatternTextTest, ErrorsCarryLineNumbers) {
  auto bad_op = ParsePatternText("node a SA experience => 5\noutput a\n");
  EXPECT_TRUE(bad_op.status().IsCorruption());
  EXPECT_NE(bad_op.status().message().find("line 1"), std::string::npos);

  auto bad_edge = ParsePatternText("node a SA\nedge a zzz\noutput a\n");
  EXPECT_TRUE(bad_edge.status().IsCorruption());
  EXPECT_NE(bad_edge.status().message().find("line 2"), std::string::npos);
}

TEST(PatternTextTest, RejectsMalformedInputs) {
  EXPECT_TRUE(ParsePatternText("node a\n").status().IsCorruption());
  EXPECT_TRUE(ParsePatternText("node a SA x >=\noutput a\n").status().IsCorruption());
  EXPECT_TRUE(ParsePatternText("edge a b c d\n").status().IsCorruption());
  EXPECT_TRUE(ParsePatternText("output nobody\n").status().IsCorruption());
  EXPECT_TRUE(ParsePatternText("blah\n").status().IsCorruption());
  EXPECT_TRUE(ParsePatternText("node a SA\nedge a a 0\noutput a\n")
                  .status()
                  .IsCorruption());
  // Bounds that do not fit 32 bits, and the unbounded sentinel spelled as a
  // number (only `*` means unbounded).
  EXPECT_TRUE(ParsePatternText("node a SA\nedge a a 4294967297\noutput a\n")
                  .status()
                  .IsCorruption());
  EXPECT_TRUE(ParsePatternText("node a SA\nedge a a 4294967295\noutput a\n")
                  .status()
                  .IsCorruption());
  // Valid lines but no output directive.
  EXPECT_TRUE(ParsePatternText("node a SA\n").status().IsInvalidArgument());
}

TEST(PatternTextTest, FingerprintSensitivity) {
  Pattern q1 = gen::BuildFig1Pattern();
  Pattern q2 = gen::TeamQuery(0);
  EXPECT_NE(q1.ToText(), q2.ToText());
  EXPECT_NE(q1.CanonicalFingerprint(), q2.CanonicalFingerprint());
  // A reparsed pattern keeps its rendering and its cache identity.
  auto reparsed = ParsePatternText(q1.ToText());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->ToText(), q1.ToText());
  EXPECT_EQ(reparsed->CanonicalFingerprint(), q1.CanonicalFingerprint());
}

}  // namespace
}  // namespace expfinder
