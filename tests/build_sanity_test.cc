// Build-system sanity check: include the umbrella header and touch one type
// or function from every module in src/. If a module is ever dropped from
// expfinder_core (or from src/expfinder.h), this test fails to compile or
// link instead of tier-1 passing vacuously.

#include <gtest/gtest.h>

#include "src/expfinder.h"

namespace expfinder {
namespace {

TEST(BuildSanityTest, EveryModuleLinks) {
  // util: status, timer, random, string_util.
  EXPECT_TRUE(Status::OK().ok());
  Timer timer;
  EXPECT_GE(timer.ElapsedSeconds(), 0.0);
  Rng rng(42);
  EXPECT_EQ(ToLower("ExpFinder"), "expfinder");
  DenseBitset bits(1, 64);
  bits.Set(0, 7);
  EXPECT_EQ(bits.Count(), 1u);
  ThreadPool pool(2);
  EXPECT_EQ(pool.num_workers(), 2u);

  // graph: core container, stats, SCC, BFS, CSR.
  Graph g;
  NodeId a = g.AddNode("person");
  NodeId b = g.AddNode("person");
  ASSERT_TRUE(g.AddEdge(a, b).ok());
  EXPECT_EQ(g.NumNodes(), 2u);
  GraphStats stats = ComputeStats(g);
  EXPECT_EQ(stats.num_nodes, 2u);
  EXPECT_EQ(ComputeScc(g).num_components, 2u);
  EXPECT_EQ(SingleSourceDistances(g, a).size(), 2u);
  EXPECT_EQ(g.Publish()->csr().Out(a).size(), 1u);

  // generator.
  Graph fig1 = gen::BuildFig1Graph();
  EXPECT_GT(fig1.NumNodes(), 0u);

  // query.
  Pattern q;
  auto pa = q.AddNode({"x", "person", {}});
  ASSERT_TRUE(pa.ok());
  EXPECT_EQ(q.NumNodes(), 1u);

  // matching + result graph.
  MatchContext ctx;
  SnapshotPtr snap = g.Publish();
  MatchRelation m = ComputeBoundedSimulation(snap, q, MatchOptions{}, &ctx);
  EXPECT_EQ(ctx.bound_snapshot(), snap);
  ResultGraph gr(snap, q, m, &ctx);
  EXPECT_EQ(gr.NumNodes(), m.MatchesOf(*pa).size());

  // ranking.
  EXPECT_FALSE(ParseRankingMetric("bogus").has_value());

  // incremental.
  UpdateBatch batch = {GraphUpdate::Insert(a, b)};
  EXPECT_EQ(batch.size(), 1u);

  // compression.
  auto cg = CompressedGraph::Build(g, CompressionSchema{});
  ASSERT_TRUE(cg.ok());
  EXPECT_GT(cg->NumClasses(), 0u);

  // engine.
  QueryEngine engine(&g);
  EXPECT_TRUE(engine.ApplyUpdates({}).ok());

  // service.
  Graph service_graph = g;
  ExpFinderService service(&service_graph);
  EXPECT_TRUE(service.Mutate({}).ok());
  EXPECT_EQ(ServingPathName(ServingPath::kDirect), "direct");
  EXPECT_EQ(QueryPriorityName(QueryPriority::kNormal), "normal");
  AdmissionQueue admission(1);
  EXPECT_EQ(admission.capacity(), 1u);

  // storage.
  auto store = GraphStore::Open(::testing::TempDir() + "build_sanity_store");
  ASSERT_TRUE(store.ok());
  EXPECT_TRUE(store->PutGraph("g", g).ok());

  // viz.
  EXPECT_FALSE(GraphToDot(g).empty());
  EXPECT_FALSE(PatternToDot(q).empty());
}

}  // namespace
}  // namespace expfinder
