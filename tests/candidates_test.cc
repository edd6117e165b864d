// Candidate seeding against its reference, PatternNode::Matches. Int
// comparisons on all-int keys are answered from the content version's int
// columns, everything else from Condition::Eval; both must give exactly the
// reference answer, whether the column exists, is refused (the key holds a
// non-int value somewhere), or was dropped with its slot by a content
// mutation.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/index/topic_index.h"
#include "src/matching/candidates.h"
#include "src/query/pattern.h"
#include "src/util/random.h"

namespace expfinder {
namespace {

constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

/// "years" holds ints only (including the INT64 extremes) and is absent on
/// some nodes; "mixed" holds ints, doubles, bools and strings and is absent
/// on some nodes.
Graph RandomGraph(uint64_t seed, size_t n) {
  Rng rng(seed);
  Graph g;
  const std::vector<int64_t> ints = {kMin, kMin + 1, -7, -1, 0, 1, 3, 7, 8, kMax - 1, kMax};
  for (size_t i = 0; i < n; ++i) {
    const NodeId v = g.AddNode(rng.NextBool() ? "A" : "B");
    if (rng.NextBounded(5) != 0) {
      g.SetAttr(v, "years", AttrValue(ints[rng.NextBounded(ints.size())]));
    }
    switch (rng.NextBounded(6)) {
      case 0: g.SetAttr(v, "mixed", AttrValue(ints[rng.NextBounded(ints.size())])); break;
      case 1: g.SetAttr(v, "mixed", AttrValue(rng.NextBool() ? 3.0 : 3.5)); break;
      case 2: g.SetAttr(v, "mixed", AttrValue(rng.NextBool())); break;
      case 3: g.SetAttr(v, "mixed", AttrValue(rng.NextBool() ? "7" : "seven")); break;
      case 4: g.SetAttr(v, "mixed", AttrValue(std::nan(""))); break;
      default: break;  // absent
    }
  }
  return g;
}

std::vector<AttrValue> RhsValues() {
  return {AttrValue(kMin), AttrValue(kMin + 1), AttrValue(int64_t{-1}), AttrValue(int64_t{0}),
          AttrValue(int64_t{3}), AttrValue(int64_t{7}), AttrValue(kMax - 1), AttrValue(kMax),
          AttrValue(3.0), AttrValue(3.5), AttrValue(std::nan("")), AttrValue(true),
          AttrValue(false), AttrValue("7"), AttrValue("seven")};
}

constexpr CmpOp kAllOps[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt, CmpOp::kLe,
                             CmpOp::kGt, CmpOp::kGe, CmpOp::kContains, CmpOp::kHasToken};

/// Seeds a one-node pattern `label? attr op rhs` (plus `extra`, when set) on
/// `g` and compares with PatternNode::Matches node by node.
void ExpectSeedingMatchesReference(const Graph& g, const std::string& label,
                                   const Condition& cond,
                                   const std::vector<Condition>& extra = {}) {
  Pattern q;
  PatternNode node;
  node.name = "u";
  node.label = label;
  node.conditions.push_back(cond);
  node.conditions.insert(node.conditions.end(), extra.begin(), extra.end());
  ASSERT_TRUE(q.AddNode(node).ok());
  std::vector<NodeId> expected;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    if (q.node(0).Matches(g, v)) expected.push_back(v);
  }
  for (bool use_label_index : {true, false}) {
    MatchOptions options;
    options.use_label_index = use_label_index;
    const CandidateSets cand = ComputeCandidates(g, q, options);
    EXPECT_EQ(cand.list[0], expected)
        << "label '" << label << "' " << cond.ToString() << " label_index "
        << use_label_index;
  }
}

/// Every op x rhs on both keys, with and without a label.
void ExpectAllConditionsMatchReference(const Graph& g) {
  for (const char* attr : {"years", "mixed"}) {
    for (CmpOp op : kAllOps) {
      for (const AttrValue& rhs : RhsValues()) {
        for (const char* label : {"", "A"}) {
          ExpectSeedingMatchesReference(g, label, Condition(attr, op, rhs));
        }
      }
    }
  }
  // Two int conditions on one node, one per key: column and Eval together.
  ExpectSeedingMatchesReference(g, "", Condition("years", CmpOp::kGe, AttrValue(int64_t{0})),
                                {Condition("mixed", CmpOp::kNe, AttrValue(int64_t{7}))});
}

const IntColumns* ColumnsOf(const Graph& g) { return g.topic_slot()->IntColumnsFor(g); }

TEST(CandidatesTest, IntColumnsMatchTheReferenceOnRandomGraphs) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    const Graph g = RandomGraph(seed, 300);
    ExpectAllConditionsMatchReference(g);
    // The all-int key got a column, the mixed key was refused one.
    const IntColumns* columns = ColumnsOf(g);
    ASSERT_NE(columns, nullptr);
    EXPECT_NE(columns->Find(*g.FindAttrKey("years")), nullptr);
    EXPECT_EQ(columns->Find(*g.FindAttrKey("mixed")), nullptr);
  }
}

TEST(CandidatesTest, NotEqualOnAnAbsentAttributeIsFalse) {
  Graph g;
  const NodeId has = g.AddNode("A");
  g.AddNode("A");  // lacks "years"
  g.SetAttr(has, "years", AttrValue(int64_t{4}));
  Pattern q;
  ASSERT_TRUE(q.AddNode({"u", "A", {Condition("years", CmpOp::kNe, AttrValue(int64_t{9}))}}).ok());
  EXPECT_EQ(ComputeCandidates(g, q).list[0], std::vector<NodeId>{has});
  ASSERT_NE(ColumnsOf(g)->Find(*g.FindAttrKey("years")), nullptr);
}

TEST(CandidatesTest, ContentMutationsReplaceTheColumns) {
  Graph g = RandomGraph(9, 200);
  ExpectAllConditionsMatchReference(g);
  const std::shared_ptr<TopicIndexSlot> first = g.topic_slot();
  const AttrKeyId years = *g.FindAttrKey("years");
  ASSERT_NE(ColumnsOf(g)->Find(years), nullptr);

  // SetAttr with an int: a new slot, a new column that sees the new value.
  g.SetAttr(5, "years", AttrValue(int64_t{123456}));
  EXPECT_NE(g.topic_slot(), first);
  ExpectAllConditionsMatchReference(g);
  ExpectSeedingMatchesReference(g, "", Condition("years", CmpOp::kEq, AttrValue(int64_t{123456})));
  ASSERT_NE(ColumnsOf(g)->Find(years), nullptr);

  // AddNode: the new node has no attributes, so it fails every comparison.
  const std::shared_ptr<TopicIndexSlot> second = g.topic_slot();
  g.AddNode("A");
  EXPECT_NE(g.topic_slot(), second);
  ExpectAllConditionsMatchReference(g);
  EXPECT_EQ(ColumnsOf(g)->NumNodes(), g.NumNodes());

  // A string lands in "years": the key is refused its column from now on.
  g.SetAttr(7, "years", AttrValue("seven"));
  ExpectAllConditionsMatchReference(g);
  EXPECT_EQ(ColumnsOf(g)->Find(years), nullptr);

  // A copy made before a mutation keeps the columns of its own content.
  const Graph copy = g;
  const IntColumns* shared = ColumnsOf(copy);
  g.SetAttr(8, "mixed", AttrValue(int64_t{1}));
  EXPECT_EQ(ColumnsOf(copy), shared);
  ExpectAllConditionsMatchReference(copy);
  ExpectAllConditionsMatchReference(g);
}

}  // namespace
}  // namespace expfinder
