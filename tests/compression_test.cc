#include <gtest/gtest.h>

#include <ostream>

#include "src/compression/compressed_graph.h"
#include "src/compression/sim_equivalence.h"
#include "src/generator/generators.h"
#include "src/matching/bounded_simulation.h"

namespace expfinder {
namespace {

CompressionSchema ExperienceSchema() { return {true, {"experience"}}; }

TEST(CompressedGraphTest, Fig1FredAndPatScenario) {
  // The paper's §II example: under a label-only view, Fred and Pat (both
  // SD/DBA collaborating with the same groups) can merge.
  Graph g = gen::BuildFig1Graph();
  // Make Fred structurally equivalent to Pat for this check.
  ASSERT_TRUE(g.AddEdge(gen::Fig1::kFred, gen::Fig1::kJean).ok());
  ASSERT_TRUE(g.AddEdge(gen::Fig1::kFred, gen::Fig1::kEva).ok());
  auto cg = CompressedGraph::Build(g, {true, {}});
  ASSERT_TRUE(cg.ok()) << cg.status();
  EXPECT_EQ(cg->ClassOf(gen::Fig1::kFred), cg->ClassOf(gen::Fig1::kPat));
  EXPECT_LT(cg->gc().NumNodes(), g.NumNodes());
}

TEST(CompressedGraphTest, ClassesRespectInitialPartition) {
  Graph g = gen::CollaborationNetwork({.num_people = 200, .num_teams = 40, .seed = 3});
  auto cg = CompressedGraph::Build(g, ExperienceSchema());
  ASSERT_TRUE(cg.ok());
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    NodeId rep = cg->MembersOf(cg->ClassOf(v))[0];
    EXPECT_EQ(g.label(v), g.label(rep));
    EXPECT_TRUE(g.GetAttr(v, "experience")->Equals(*g.GetAttr(rep, "experience")));
  }
}

TEST(CompressedGraphTest, MembersPartitionTheNodes) {
  Graph g = gen::TwitterLike({.n = 500, .out_per_node = 4, .seed = 7});
  auto cg = CompressedGraph::Build(g, ExperienceSchema());
  ASSERT_TRUE(cg.ok());
  std::vector<char> seen(g.NumNodes(), 0);
  for (uint32_t c = 0; c < cg->NumClasses(); ++c) {
    for (NodeId v : cg->MembersOf(c)) {
      EXPECT_EQ(cg->ClassOf(v), c);
      EXPECT_FALSE(seen[v]) << "node in two classes";
      seen[v] = 1;
    }
  }
  for (NodeId v = 0; v < g.NumNodes(); ++v) EXPECT_TRUE(seen[v]);
  EXPECT_LE(cg->NodeRatio(), 1.0);
  EXPECT_GT(cg->NodeRatio(), 0.0);
}

TEST(CompressedGraphTest, CompatibilityChecks) {
  Graph g = gen::BuildFig1Graph();
  auto cg = CompressedGraph::Build(g, ExperienceSchema());
  ASSERT_TRUE(cg.ok());
  EXPECT_TRUE(cg->IsCompatible(gen::BuildFig1Pattern()));
  // A pattern testing an attribute outside the schema is rejected.
  PatternBuilder b;
  b.Node("SD", "sd").Where("specialty", CmpOp::kEq, "DBA").Output();
  EXPECT_FALSE(cg->IsCompatible(b.Build().value()));
  // Label-less schema rejects labelled patterns.
  auto cg2 = CompressedGraph::Build(g, {false, {"experience"}});
  ASSERT_TRUE(cg2.ok());
  EXPECT_FALSE(cg2->IsCompatible(gen::BuildFig1Pattern()));
}

TEST(CompressedGraphTest, Fig1QueryPreservedExactly) {
  Graph g = gen::BuildFig1Graph();
  Pattern q = gen::BuildFig1Pattern();
  auto cg = CompressedGraph::Build(g, ExperienceSchema());
  ASSERT_TRUE(cg.ok());
  MatchRelation direct = ComputeBoundedSimulation(g, q);
  MatchRelation on_gc = ComputeBoundedSimulation(cg->gc(), q);
  EXPECT_TRUE(cg->Decompress(on_gc) == direct);
}

struct PreservationParam {
  uint64_t seed;
  size_t n, m;
  Distance max_bound;
};

// Names the CTest row (e.g. seed2_n60_m240_b2) instead of the struct's raw
// bytes, whose padding changes from build to build.
void PrintTo(const PreservationParam& p, std::ostream* os) {
  *os << "seed" << p.seed << "_n" << p.n << "_m" << p.m << "_b" << p.max_bound;
}

class CompressionPreservationSweep
    : public ::testing::TestWithParam<PreservationParam> {};

// The SIGMOD'12 theorem, property-tested: decompress(M(Q,Gc)) == M(Q,G) for
// every schema-compatible bounded-simulation query.
TEST_P(CompressionPreservationSweep, BoundedSimulationPreserved) {
  const PreservationParam p = GetParam();
  Graph g = gen::ErdosRenyi(p.n, p.m, p.seed);
  auto cg = CompressedGraph::Build(g, ExperienceSchema());
  ASSERT_TRUE(cg.ok());
  for (int i = 0; i < 5; ++i) {
    Pattern q = gen::RandomPattern(4, 5, p.max_bound, 0.4, p.seed * 71 + i);
    ASSERT_TRUE(cg->IsCompatible(q)) << q.ToText();
    MatchRelation direct = ComputeBoundedSimulation(g, q);
    MatchRelation via_gc = cg->Decompress(ComputeBoundedSimulation(cg->gc(), q));
    EXPECT_TRUE(via_gc == direct) << "query " << i << "\n" << q.ToText();
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, CompressionPreservationSweep,
    ::testing::Values(PreservationParam{1, 40, 120, 1}, PreservationParam{2, 60, 240, 2},
                      PreservationParam{3, 80, 240, 3}, PreservationParam{4, 50, 300, 4},
                      PreservationParam{5, 100, 400, 2},
                      PreservationParam{6, 30, 60, 3}));

TEST(CompressionPreservationTest, CollaborationNetworks) {
  for (uint64_t seed : {11ULL, 22ULL}) {
    gen::CollaborationConfig cfg;
    cfg.num_people = 150;
    cfg.num_teams = 30;
    cfg.seed = seed;
    Graph g = gen::CollaborationNetwork(cfg);
    auto cg = CompressedGraph::Build(g, ExperienceSchema());
    ASSERT_TRUE(cg.ok());
    for (int i = 0; i < 3; ++i) {
      Pattern q = gen::RandomPattern(4, 5, 3, 0.5, seed * 5 + i);
      EXPECT_TRUE(cg->Decompress(ComputeBoundedSimulation(cg->gc(), q)) ==
                  ComputeBoundedSimulation(g, q))
          << i;
    }
  }
}

TEST(SimEquivalenceTest, CoarserOrEqualToBisimulation) {
  Graph g = gen::ErdosRenyi(60, 200, 13);
  Partition init = SchemaPartition(g, {true, {}});
  Partition bisim = ComputeBisimulation(g, init);
  auto simeq = ComputeSimEquivalence(g, init);
  ASSERT_TRUE(simeq.ok());
  EXPECT_LE(simeq->num_blocks, bisim.num_blocks);
  // Bisimilar nodes must also be simulation equivalent.
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    for (NodeId v = u + 1; v < g.NumNodes(); ++v) {
      if (bisim.block_of[u] == bisim.block_of[v]) {
        EXPECT_EQ(simeq->block_of[u], simeq->block_of[v]) << u << "," << v;
      }
    }
  }
}

TEST(SimEquivalenceTest, PreservesPlainSimulationQueries) {
  for (uint64_t seed : {3ULL, 9ULL, 27ULL}) {
    Graph g = gen::ErdosRenyi(50, 200, seed);
    auto cg = CompressedGraph::Build(g, ExperienceSchema(),
                                     EquivalenceMode::kSimEquivalence);
    ASSERT_TRUE(cg.ok());
    for (int i = 0; i < 4; ++i) {
      Pattern q = gen::RandomPattern(4, 5, 1, 0.4, seed * 91 + i);
      ASSERT_TRUE(cg->IsCompatible(q));
      EXPECT_TRUE(cg->Decompress(ComputeBoundedSimulation(cg->gc(), q)) ==
                  ComputeBoundedSimulation(g, q))
          << "seed " << seed << " query " << i;
    }
  }
}

TEST(SimEquivalenceTest, RejectsBoundedPatterns) {
  Graph g = gen::BuildFig1Graph();
  auto cg =
      CompressedGraph::Build(g, ExperienceSchema(), EquivalenceMode::kSimEquivalence);
  ASSERT_TRUE(cg.ok());
  EXPECT_FALSE(cg->IsCompatible(gen::BuildFig1Pattern()));
}

TEST(SimEquivalenceTest, GuardsAgainstHugeGraphs) {
  Graph g;
  // Only the node count matters for the guard; build cheaply.
  for (size_t i = 0; i < kSimEquivalenceMaxNodes + 1; ++i) g.AddNode("N");
  Partition init;
  init.block_of.assign(g.NumNodes(), 0);
  init.num_blocks = 1;
  auto res = ComputeSelfSimulation(g, init);
  EXPECT_TRUE(res.status().IsUnsupported());
}

TEST(CompressedGraphTest, RatiosReflectRedundancy) {
  // Highly regular graph (every leaf identical) compresses dramatically.
  Graph g;
  NodeId root = g.AddNode("R");
  for (int i = 0; i < 50; ++i) {
    NodeId leaf = g.AddNode("L");
    ASSERT_TRUE(g.AddEdge(root, leaf).ok());
  }
  auto cg = CompressedGraph::Build(g, {true, {}});
  ASSERT_TRUE(cg.ok());
  EXPECT_EQ(cg->gc().NumNodes(), 2u);
  EXPECT_EQ(cg->gc().NumEdges(), 1u);
  EXPECT_LT(cg->NodeRatio(), 0.05);
}

}  // namespace
}  // namespace expfinder
