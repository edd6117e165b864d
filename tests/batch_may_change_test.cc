// BatchMayChange (incremental/update.h), the affected-area test that lets
// the result cache carry an answer across an edge batch. Its "cannot
// change" must be a proof: a seeded differential sweep checks that whenever
// it answers so, the relation (naive oracle) and the result graph (nodes,
// edges, weights) after the batch equal those before, and requires enough
// such rows, and enough rows that did change, for the check to bite.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/generator/generators.h"
#include "src/incremental/update.h"
#include "src/index/topic_index.h"
#include "src/matching/bounded_simulation.h"
#include "src/matching/dual_simulation.h"
#include "src/matching/match_context.h"
#include "src/matching/result_graph.h"
#include "src/util/random.h"

namespace expfinder {
namespace {

/// Bound-1 edges, bound-2/3 edges with a search condition and a cycle,
/// compiled topic terms (`has_token` predicates), and one unbounded edge
/// (always last).
std::vector<Pattern> SweepPatterns() {
  std::vector<Pattern> out;
  {
    PatternBuilder b;
    auto sa = b.Node("SA", "sa").Output();
    auto sd = b.Node("SD", "sd");
    auto st = b.Node("ST", "st");
    b.Edge(sa, sd, 1).Edge(sd, st, 1);
    out.push_back(b.Build().value());
  }
  {
    PatternBuilder b;
    auto ba = b.Node("BA", "ba").Where("experience", CmpOp::kGe, 5).Output();
    auto sd = b.Node("SD", "sd");
    b.Edge(ba, sd, 2).Edge(sd, ba, 3);
    out.push_back(b.Build().value());
  }
  {
    PatternBuilder b;
    auto pm = b.Node("PM", "pm").Output();
    auto st = b.Node("ST", "st");
    b.Edge(pm, st, 2);
    out.push_back(CompileTopicTerms(b.Build().value(), {"machine learning"}));
  }
  {
    PatternBuilder b;
    auto dba = b.Node("DBA", "dba").Output();
    auto ux = b.Node("UX", "ux");
    b.Edge(dba, ux, 3);
    out.push_back(b.Build().value());
  }
  {
    PatternBuilder b;
    auto sa = b.Node("SA", "sa").Output();
    auto ops = b.Node("OPS", "ops");
    b.Edge(sa, ops, kUnboundedEdge);
    out.push_back(b.Build().value());
  }
  return out;
}

MatchRelation Oracle(const Graph& g, const Pattern& q, MatchSemantics semantics) {
  return semantics == MatchSemantics::kDualSimulation ? ComputeDualSimulationNaive(g, q)
                                                      : ComputeBoundedSimulationNaive(g, q);
}

bool SameResultGraph(const ResultGraph& a, const ResultGraph& b) {
  if (a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges()) return false;
  for (uint32_t i = 0; i < a.NumNodes(); ++i) {
    if (a.DataNode(i) != b.DataNode(i)) return false;
  }
  return a.Out() == b.Out();
}

struct SweepTally {
  size_t rows = 0;       // (batch, pattern, semantics) triples
  size_t unchanged = 0;  // rows the test answered "cannot change"
  size_t changed = 0;    // rows whose relation moved
};

/// A random mixed batch of 1-8 updates. Half of the batches start with a
/// path of up to four hops, whose edges are all deleted or all inserted,
/// so an update's area holds the batch's other updates: a test that reads
/// the wrong graph for them misses the path.
UpdateBatch RandomBatch(const Graph& g, Rng* rng) {
  const size_t size = 1 + rng->NextBounded(8);
  UpdateBatch batch;
  if (rng->NextBool()) {
    const bool cut = rng->NextBool();
    NodeId v = static_cast<NodeId>(rng->NextBounded(g.NumNodes()));
    for (int hop = 0; hop < 4 && batch.size() < size; ++hop) {
      const std::vector<NodeId>& out = g.OutNeighbors(v);
      NodeId w;
      if (cut) {
        if (out.empty()) break;
        w = out[rng->NextBounded(out.size())];
      } else {
        w = static_cast<NodeId>(rng->NextBounded(g.NumNodes()));
        if (w == v || g.HasEdge(v, w)) break;
      }
      const GraphUpdate u = cut ? GraphUpdate::Delete(v, w) : GraphUpdate::Insert(v, w);
      if (std::find(batch.begin(), batch.end(), u) != batch.end()) break;
      batch.push_back(u);
      v = w;
    }
  }
  Graph rest = g;
  EXPECT_TRUE(ApplyBatch(&rest, batch).ok());
  for (const GraphUpdate& u :
       GenerateUpdateStream(rest, size - batch.size(), 0.5, rng->Next())) {
    batch.push_back(u);
  }
  return batch;
}

/// Applies `batches` random batches to `g`, checking every "cannot change"
/// answer against the oracle under both semantics. The production matcher
/// carries each relation from batch to batch; the oracle judges the rows
/// the test ruled out, which keeps the sweep fast enough for sanitizers.
void RunSweep(Graph g, uint64_t seed, size_t batches, SweepTally* tally) {
  const std::vector<Pattern> patterns = SweepPatterns();
  std::vector<const Pattern*> ptrs;
  for (const Pattern& q : patterns) ptrs.push_back(&q);
  const MatchSemantics kSemantics[] = {MatchSemantics::kBoundedSimulation,
                                       MatchSemantics::kDualSimulation};
  std::vector<MatchRelation> current;  // per (pattern, semantics)
  for (const Pattern& q : patterns) {
    for (MatchSemantics s : kSemantics) current.push_back(Oracle(g, q, s));
  }
  Rng rng(seed);
  MatchContext ctx;
  SnapshotPtr before = g.Publish();
  for (size_t step = 0; step < batches; ++step) {
    const UpdateBatch batch = RandomBatch(g, &rng);
    ASSERT_TRUE(ApplyBatch(&g, batch).ok());
    const SnapshotPtr after = g.Publish();
    const std::vector<bool> may_change =
        BatchMayChange(before->graph(), after->graph(), batch, ptrs);
    ASSERT_EQ(may_change.size(), patterns.size());
    EXPECT_TRUE(may_change.back()) << "an unbounded edge is never ruled out";
    for (size_t p = 0; p < patterns.size(); ++p) {
      for (size_t s = 0; s < 2; ++s) {
        const Pattern& q = patterns[p];
        MatchRelation& m = current[p * 2 + s];
        MatchRelation next = ComputeBoundedSimulation(after, q, {}, &ctx, kSemantics[s]);
        ++tally->rows;
        if (!(next == m)) ++tally->changed;
        if (!may_change[p]) {
          ++tally->unchanged;
          EXPECT_TRUE(Oracle(g, q, kSemantics[s]) == m &&
                      SameResultGraph(ResultGraph(before, q, m, &ctx),
                                      ResultGraph(after, q, m, &ctx)))
              << "pattern " << p << " semantics " << s << " step " << step << " seed "
              << seed << ": ruled out, yet the answer moved";
        }
        m = std::move(next);
      }
    }
    before = after;
  }
}

/// At least this share of rows must be "cannot change" answers, and at
/// least this many rows must have changed, or the sweep proves nothing.
constexpr double kMinUnchangedShare = 0.4;
constexpr size_t kMinChangedRows = 100;

void ExpectSweepBites(const SweepTally& t) {
  EXPECT_GE(static_cast<double>(t.unchanged), kMinUnchangedShare * t.rows)
      << t.unchanged << " of " << t.rows << " rows ruled out";
  EXPECT_GE(t.changed, kMinChangedRows) << t.changed << " of " << t.rows << " rows changed";
}

class BatchMayChangeSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BatchMayChangeSweep, ErdosRenyiRuledOutMeansUnchanged) {
  SweepTally tally;
  RunSweep(gen::ErdosRenyi(120, 240, GetParam(), gen::TopicExpertiseModel()),
           GetParam(), 150, &tally);
  ExpectSweepBites(tally);
}

TEST_P(BatchMayChangeSweep, CollaborationRuledOutMeansUnchanged) {
  gen::CollaborationConfig config;
  config.num_people = 120;
  config.num_teams = 20;
  config.seed = GetParam();
  config.labels = gen::TopicExpertiseModel();
  SweepTally tally;
  RunSweep(gen::CollaborationNetwork(config), GetParam() ^ 0x5eed, 150, &tally);
  ExpectSweepBites(tally);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchMayChangeSweep, ::testing::Values(1, 2, 3));

/// x -> a -> b -> y with labels X, N, N, Y.
Graph Chain() {
  Graph g;
  g.AddNode("X");
  g.AddNode("N");
  g.AddNode("N");
  g.AddNode("Y");
  EXPECT_TRUE(g.AddEdge(0, 1).ok());
  EXPECT_TRUE(g.AddEdge(1, 2).ok());
  EXPECT_TRUE(g.AddEdge(2, 3).ok());
  return g;
}

Pattern XToY(Distance bound) {
  PatternBuilder b;
  auto x = b.Node("X", "x").Output();
  auto y = b.Node("Y", "y");
  b.Edge(x, y, bound);
  return b.Build().value();
}

std::vector<bool> MayChange(const Graph& g, const UpdateBatch& batch,
                            const std::vector<Pattern>& patterns) {
  Graph after = g;
  EXPECT_TRUE(ApplyBatch(&after, batch).ok());
  std::vector<const Pattern*> ptrs;
  for (const Pattern& q : patterns) ptrs.push_back(&q);
  return BatchMayChange(g, after, batch, ptrs);
}

TEST(BatchMayChangeTest, PathThroughTheEdgeWithinTheBound) {
  const Graph g = Chain();
  // The x..y path has length 3 and runs through (a, b).
  const UpdateBatch cut = {GraphUpdate::Delete(1, 2)};
  EXPECT_EQ(MayChange(g, cut, {XToY(3), XToY(2)}), (std::vector<bool>{true, false}));
  // An edge-less pattern never changes; an unbounded edge always may.
  PatternBuilder lone;
  lone.Node("X", "x").Output();
  EXPECT_EQ(MayChange(g, cut, {lone.Build().value(), XToY(kUnboundedEdge)}),
            (std::vector<bool>{false, true}));
}

TEST(BatchMayChangeTest, InsertsReadTheGraphAfterTheBatch) {
  Graph g;
  for (const char* label : {"X", "N", "N", "Y"}) g.AddNode(label);
  // x -> a and b -> y arrive with (a, b): only the post-batch graph holds
  // the path x -> a -> b -> y.
  const UpdateBatch batch = {GraphUpdate::Insert(0, 1), GraphUpdate::Insert(1, 2),
                             GraphUpdate::Insert(2, 3)};
  EXPECT_EQ(MayChange(g, batch, {XToY(3)}), std::vector<bool>{true});
}

TEST(BatchMayChangeTest, DeletesReadTheGraphBeforeTheBatch) {
  const Graph g = Chain();
  // Cutting every edge removes x's only match; the post-batch graph holds
  // no path at all, so only the pre-batch one shows what was lost.
  const UpdateBatch batch = {GraphUpdate::Delete(0, 1), GraphUpdate::Delete(1, 2),
                             GraphUpdate::Delete(2, 3)};
  EXPECT_EQ(MayChange(g, batch, {XToY(3)}), std::vector<bool>{true});
}

TEST(BatchMayChangeTest, FarEdgeLeavesTheAnswer) {
  Graph g = Chain();
  g.AddNode("N");
  g.AddNode("N");
  ASSERT_TRUE(g.AddEdge(3, 4).ok());
  // (y, n4) then (n4, n5) are at least one hop past every x..y path.
  EXPECT_EQ(MayChange(g, {GraphUpdate::Insert(4, 5)}, {XToY(3)}),
            std::vector<bool>{false});
  // A shortcut x -> y keeps the relation but moves the result graph's
  // weight from 3 to 1.
  EXPECT_EQ(MayChange(g, {GraphUpdate::Insert(0, 3)}, {XToY(3)}),
            std::vector<bool>{true});
}

}  // namespace
}  // namespace expfinder
