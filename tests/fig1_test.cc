// End-to-end reproduction of the paper's running example (Examples 1-3,
// Fig. 1): the exact match relation, the exact ranking scores, the top-1
// expert, and the effect of inserting edge e1. bench/bench_semantics.cc
// prints the same numbers as experiment E1.

#include <gtest/gtest.h>

#include "src/generator/generators.h"
#include "src/incremental/inc_bounded.h"
#include "src/matching/bounded_simulation.h"
#include "src/matching/result_graph.h"
#include "src/ranking/social_impact.h"
#include "src/ranking/topk.h"

namespace expfinder {
namespace {

using gen::Fig1;

class Fig1Fixture : public ::testing::Test {
 protected:
  void SetUp() override {
    g_ = gen::BuildFig1Graph();
    q_ = gen::BuildFig1Pattern();
  }
  Graph g_;
  Pattern q_;
};

TEST_F(Fig1Fixture, Example1ExactMatchRelation) {
  MatchRelation m = ComputeBoundedSimulation(g_, q_);
  ASSERT_FALSE(m.IsEmpty());
  auto sa = *q_.FindNode("SA");
  auto sd = *q_.FindNode("SD");
  auto ba = *q_.FindNode("BA");
  auto st = *q_.FindNode("ST");
  // M(Q,G) = {(SA,Bob),(SA,Walt),(BA,Jean),(SD,Mat),(SD,Dan),(SD,Pat),(ST,Eva)}
  EXPECT_EQ(m.MatchesOf(sa), (std::vector<NodeId>{Fig1::kBob, Fig1::kWalt}));
  EXPECT_EQ(m.MatchesOf(ba), (std::vector<NodeId>{Fig1::kJean}));
  EXPECT_EQ(m.MatchesOf(sd),
            (std::vector<NodeId>{Fig1::kMat, Fig1::kDan, Fig1::kPat}));
  EXPECT_EQ(m.MatchesOf(st), (std::vector<NodeId>{Fig1::kEva}));
  EXPECT_EQ(m.TotalPairs(), 7u);
  // Fred (2y DBA) satisfies SD's conditions but cannot reach a tester.
  EXPECT_FALSE(m.Contains(sd, Fig1::kFred));
  // Bill (graphic designer) matches nothing.
  for (PatternNodeId u = 0; u < q_.NumNodes(); ++u) {
    EXPECT_FALSE(m.Contains(u, Fig1::kBill));
  }
}

TEST_F(Fig1Fixture, Example2ExactRankingScores) {
  MatchRelation m = ComputeBoundedSimulation(g_, q_);
  ResultGraph gr(g_, q_, m);
  // Result graph nodes: the 7 matched people.
  EXPECT_EQ(gr.NumNodes(), 7u);
  auto bob = gr.PositionOf(Fig1::kBob);
  auto walt = gr.PositionOf(Fig1::kWalt);
  ASSERT_TRUE(bob.has_value());
  ASSERT_TRUE(walt.has_value());
  // f(SA,Bob) = (1+1+2+3+2)/5 = 9/5, f(SA,Walt) = (2+2+3)/3 = 7/3.
  EXPECT_DOUBLE_EQ(SocialImpactScore(gr, *bob), 9.0 / 5.0);
  EXPECT_DOUBLE_EQ(SocialImpactScore(gr, *walt), 7.0 / 3.0);
}

TEST_F(Fig1Fixture, Example2BobIsTop1) {
  MatchRelation m = ComputeBoundedSimulation(g_, q_);
  ResultGraph gr(g_, q_, m);
  auto top = TopKMatches(gr, q_, 1);
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(top->size(), 1u);
  EXPECT_EQ((*top)[0].node, Fig1::kBob);
  EXPECT_DOUBLE_EQ((*top)[0].score, 1.8);

  auto both = TopKMatches(gr, q_, 2);
  ASSERT_TRUE(both.ok());
  ASSERT_EQ(both->size(), 2u);
  EXPECT_EQ((*both)[1].node, Fig1::kWalt);
}

TEST_F(Fig1Fixture, Example3InsertE1AddsFred) {
  IncrementalBoundedSimulation inc(&g_, q_);
  auto [src, dst] = gen::Fig1EdgeE1();
  auto delta = inc.ApplyBatch({GraphUpdate::Insert(src, dst)});
  ASSERT_TRUE(delta.ok()) << delta.status();
  auto sd = *q_.FindNode("SD");
  ASSERT_EQ(delta->added.size(), 1u);
  EXPECT_EQ(delta->added[0], (std::pair<PatternNodeId, NodeId>{sd, Fig1::kFred}));
  EXPECT_TRUE(delta->removed.empty());
  // Incremental state agrees with recomputation from scratch.
  EXPECT_TRUE(inc.Snapshot() == ComputeBoundedSimulation(g_, q_));
  EXPECT_TRUE(inc.Snapshot().Contains(sd, Fig1::kFred));
}

TEST_F(Fig1Fixture, Example3DeleteE1RemovesFredAgain) {
  ASSERT_TRUE(g_.AddEdge(Fig1::kFred, Fig1::kJean).ok());
  IncrementalBoundedSimulation inc(&g_, q_);
  auto sd = *q_.FindNode("SD");
  ASSERT_TRUE(inc.Snapshot().Contains(sd, Fig1::kFred));
  auto delta = inc.ApplyBatch({GraphUpdate::Delete(Fig1::kFred, Fig1::kJean)});
  ASSERT_TRUE(delta.ok());
  ASSERT_EQ(delta->removed.size(), 1u);
  EXPECT_EQ(delta->removed[0], (std::pair<PatternNodeId, NodeId>{sd, Fig1::kFred}));
  EXPECT_TRUE(inc.Snapshot() == ComputeBoundedSimulation(g_, q_));
}

TEST_F(Fig1Fixture, RankingStableAfterE1) {
  ASSERT_TRUE(g_.AddEdge(Fig1::kFred, Fig1::kJean).ok());
  MatchRelation m = ComputeBoundedSimulation(g_, q_);
  ResultGraph gr(g_, q_, m);
  EXPECT_EQ(gr.NumNodes(), 8u);  // Fred joins the result graph
  auto top = TopKMatches(gr, q_, 2);
  ASSERT_TRUE(top.ok());
  EXPECT_EQ((*top)[0].node, Fig1::kBob);  // Bob still the best SA
  EXPECT_DOUBLE_EQ((*top)[0].score, 1.8);
}

}  // namespace
}  // namespace expfinder
