// Property test: the pattern text format round-trips the in-memory API.
// ~100 randomized patterns covering every CmpOp, every AttrValue type,
// wildcard and quoted labels, bounded and unbounded edges — parsing
// Pattern::ToText() must reproduce the pattern exactly, and re-rendering
// must be a fixed point, so the text format cannot silently drift from the
// in-memory representation.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/query/pattern.h"
#include "src/query/pattern_parser.h"
#include "src/util/random.h"

namespace expfinder {
namespace {

constexpr CmpOp kAllOps[] = {CmpOp::kEq,       CmpOp::kNe, CmpOp::kLt,
                             CmpOp::kLe,       CmpOp::kGt, CmpOp::kGe,
                             CmpOp::kContains, CmpOp::kHasToken};

AttrValue RandomValue(Rng& rng) {
  switch (rng.NextBounded(4)) {
    case 0:
      return AttrValue(rng.NextInt(-1000, 1000));
    case 1:
      // Arbitrary doubles: Serialize uses %.17g, which must be lossless.
      return AttrValue(rng.NextDouble() * 2000.0 - 1000.0);
    case 2:
      return AttrValue(rng.NextBool());
    default: {
      // Strings stressing the quoting/escaping path: spaces, quotes,
      // backslashes, '#', and tokens that look like other value types.
      static const char* kStrings[] = {"DBA",   "a b c", "q\"uote", "back\\slash",
                                       "#hash", "true",  "42",      "3.5"};
      return AttrValue(kStrings[rng.NextBounded(std::size(kStrings))]);
    }
  }
}

Pattern RandomRoundtripPattern(Rng& rng, size_t forced_op_index) {
  static const char* kLabels[] = {"", "SA", "SD", "dev ops", "x\"y"};
  Pattern p;
  const size_t num_nodes = 1 + rng.NextBounded(6);
  for (size_t i = 0; i < num_nodes; ++i) {
    PatternNode node;
    node.name = "n" + std::to_string(i);
    node.label = kLabels[rng.NextBounded(std::size(kLabels))];
    const size_t num_conds = rng.NextBounded(4);
    for (size_t c = 0; c < num_conds; ++c) {
      static const char* kAttrs[] = {"experience", "name", "level_2"};
      node.conditions.emplace_back(kAttrs[rng.NextBounded(std::size(kAttrs))],
                                   kAllOps[rng.NextBounded(std::size(kAllOps))],
                                   RandomValue(rng));
    }
    // Guarantee every CmpOp appears across the run regardless of the draws.
    if (i == 0) {
      node.conditions.emplace_back("experience", kAllOps[forced_op_index],
                                   AttrValue(5));
    }
    EXPECT_TRUE(p.AddNode(std::move(node)).ok());
  }
  // Random edges with bounds across 1, small, and unbounded; duplicate
  // (src,dst) draws are rejected by AddEdge, which is fine here.
  const size_t num_edges = rng.NextBounded(2 * num_nodes);
  for (size_t e = 0; e < num_edges; ++e) {
    auto src = static_cast<PatternNodeId>(rng.NextBounded(num_nodes));
    auto dst = static_cast<PatternNodeId>(rng.NextBounded(num_nodes));
    Distance bound;
    switch (rng.NextBounded(3)) {
      case 0: bound = 1; break;
      case 1: bound = static_cast<Distance>(1 + rng.NextBounded(9)); break;
      default: bound = kUnboundedEdge; break;
    }
    (void)p.AddEdge(src, dst, bound);  // duplicate pairs rejected; fine
  }
  EXPECT_TRUE(
      p.SetOutput(static_cast<PatternNodeId>(rng.NextBounded(num_nodes))).ok());
  return p;
}

void ExpectPatternsEqual(const Pattern& a, const Pattern& b,
                         const std::string& text) {
  ASSERT_EQ(a.NumNodes(), b.NumNodes()) << text;
  for (PatternNodeId u = 0; u < a.NumNodes(); ++u) {
    EXPECT_EQ(a.node(u).name, b.node(u).name) << text;
    EXPECT_EQ(a.node(u).label, b.node(u).label) << text;
    ASSERT_EQ(a.node(u).conditions.size(), b.node(u).conditions.size()) << text;
    for (size_t c = 0; c < a.node(u).conditions.size(); ++c) {
      EXPECT_TRUE(a.node(u).conditions[c] == b.node(u).conditions[c])
          << text << "\ncondition: " << a.node(u).conditions[c].ToString()
          << " vs " << b.node(u).conditions[c].ToString();
    }
  }
  ASSERT_EQ(a.NumEdges(), b.NumEdges()) << text;
  for (size_t e = 0; e < a.NumEdges(); ++e) {
    EXPECT_EQ(a.edges()[e].src, b.edges()[e].src) << text;
    EXPECT_EQ(a.edges()[e].dst, b.edges()[e].dst) << text;
    EXPECT_EQ(a.edges()[e].bound, b.edges()[e].bound) << text;
  }
  ASSERT_EQ(a.output_node().has_value(), b.output_node().has_value()) << text;
  EXPECT_EQ(*a.output_node(), *b.output_node()) << text;
}

TEST(PatternRoundtripTest, HundredRandomPatternsSurviveToTextAndBack) {
  Rng rng(20260728);
  for (size_t iter = 0; iter < 100; ++iter) {
    Pattern original = RandomRoundtripPattern(rng, iter % std::size(kAllOps));
    const std::string text = original.ToText();
    auto reparsed = ParsePatternText(text);
    ASSERT_TRUE(reparsed.ok()) << "iter " << iter << ": " << reparsed.status()
                               << "\n" << text;
    ExpectPatternsEqual(original, *reparsed, text);
    // Rendering is a fixed point, so the result cache keys agree between a
    // built and a parsed pattern too.
    EXPECT_EQ(reparsed->ToText(), text) << "iter " << iter;
  }
}

TEST(PatternRoundtripTest, ConditionToStringRoundTripsThroughNodeLine) {
  // Condition::ToString() is exactly the `attr OP value` triple the node
  // grammar consumes; a pattern line built from it must parse back to an
  // equal Condition for every operator and value type.
  Rng rng(42);
  for (CmpOp op : kAllOps) {
    for (int v = 0; v < 8; ++v) {
      Condition c("experience", op, RandomValue(rng));
      std::string text =
          "node x * " + c.ToString() + "\noutput x\n";
      auto parsed = ParsePatternText(text);
      ASSERT_TRUE(parsed.ok()) << text << parsed.status();
      ASSERT_EQ(parsed->node(0).conditions.size(), 1u);
      EXPECT_TRUE(parsed->node(0).conditions[0] == c)
          << text << " -> " << parsed->node(0).conditions[0].ToString();
    }
  }
}

TEST(PatternRoundtripTest, UnboundedEdgeRendersAsStar) {
  PatternBuilder b;
  auto sa = b.Node("SA", "sa").Output();
  auto sd = b.Node("SD", "sd");
  b.Edge(sa, sd, kUnboundedEdge);
  Pattern p = b.Build().value();
  EXPECT_NE(p.ToText().find("edge sa sd *"), std::string::npos);
  auto reparsed = ParsePatternText(p.ToText());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->edges()[0].bound, kUnboundedEdge);
}

}  // namespace
}  // namespace expfinder
