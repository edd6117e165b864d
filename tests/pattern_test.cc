#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/generator/generators.h"
#include "src/index/topic_index.h"
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

/// A pattern over the given nodes, edges (src, dst, bound) and output.
Pattern MakePattern(std::vector<PatternNode> nodes,
                    const std::vector<PatternEdge>& edges,
                    std::optional<PatternNodeId> output) {
  Pattern p;
  for (PatternNode& n : nodes) {
    EXPECT_TRUE(p.AddNode(std::move(n)).ok());
  }
  for (const PatternEdge& e : edges) {
    EXPECT_TRUE(p.AddEdge(e.src, e.dst, e.bound).ok());
  }
  if (output) {
    EXPECT_TRUE(p.SetOutput(*output).ok());
  }
  return p;
}

TEST(PatternTextTest, CanonicalFingerprintsArePinned) {
  // Cache keys and maintained-query keys are built on CanonicalFingerprint,
  // so its value for a given pattern must never move. These values were
  // computed by the ostringstream renderer that the string appends replaced.
  const Condition exp_ge_5("experience", CmpOp::kGe, AttrValue(int64_t{5}));
  const Condition score_gt("score", CmpOp::kGt, AttrValue(0.75));
  const Condition city_eq("city", CmpOp::kEq, AttrValue(std::string("Edinburgh")));
  const Condition quoted_ne("motto", CmpOp::kNe,
                            AttrValue(std::string("say \"hi\" \\ bye")));
  const Pattern base = MakePattern(
      {{"lead", "Data \"Lead\" \\ A", {exp_ge_5, city_eq}},
       {"any", "", {score_gt}},
       {"sd", "SD", {}}},
      {{0, 1, 2}, {1, 2, 1}}, PatternNodeId{0});
  struct Golden {
    std::string name;
    Pattern pattern;
    uint64_t fingerprint;
  };
  const std::vector<Golden> corpus = {
      {"escaped and wildcard labels", base, 0x28821219ADADE2FDULL},
      {"conditions shuffled and duplicated",
       MakePattern({{"lead", "Data \"Lead\" \\ A", {city_eq, exp_ge_5, city_eq, exp_ge_5}},
                    {"any", "", {score_gt, score_gt}},
                    {"sd", "SD", {}}},
                   {{0, 1, 2}, {1, 2, 1}}, PatternNodeId{0}),
       0x28821219ADADE2FDULL},
      {"int, double, string and escaped string constants",
       MakePattern({{"x", "ST", {quoted_ne, score_gt, exp_ge_5, city_eq}}}, {},
                   PatternNodeId{0}),
       0x8FDB351F1E1E5CA4ULL},
      {"topic terms", CompileTopicTerms(base, {"Graph databases", "query optimisation"}),
       0xDE2C7179EE2BE0C5ULL},
      {"unbounded edge",
       MakePattern({{"a", "BA", {}}, {"b", "ST", {exp_ge_5}}, {"c", "SD", {}}},
                   {{0, 1, kUnboundedEdge}, {1, 2, 3}, {2, 0, 1}}, PatternNodeId{2}),
       0xC8BD377671D41B8EULL},
      {"no output node",
       MakePattern({{"a", "BA", {}}, {"b", "", {city_eq}}}, {{0, 1, 1}}, std::nullopt),
       0x671D6CA0C4E94792ULL},
  };
  for (const Golden& g : corpus) {
    EXPECT_EQ(g.pattern.CanonicalFingerprint(), g.fingerprint) << g.name;
  }
  // Order and duplicates within a node's conjunction do not change the key.
  EXPECT_EQ(corpus[1].pattern.CanonicalFingerprint(),
            corpus[0].pattern.CanonicalFingerprint());
}

}  // namespace
}  // namespace expfinder
