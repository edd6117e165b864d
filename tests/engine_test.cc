#include <gtest/gtest.h>

#include "src/engine/query_engine.h"
#include "src/engine/result_cache.h"
#include "src/generator/generators.h"
#include "src/matching/bounded_simulation.h"

namespace expfinder {
namespace {

TEST(PlannerTest, EstimatesAndOrdersBySelectivity) {
  Graph g = gen::BuildFig1Graph();
  Pattern q = gen::BuildFig1Pattern();
  EvalPlan plan = Planner(true).Plan(g, q);
  EXPECT_FALSE(plan.provably_empty);
  ASSERT_EQ(plan.node_order.size(), 4u);
  // SD is the most common label (4 nodes) so it should come last-ish; BA/ST
  // (1 node each) come first.
  EXPECT_LE(plan.estimated_candidates[plan.node_order[0]],
            plan.estimated_candidates[plan.node_order[3]]);
  EXPECT_NE(plan.ToString(q).find("label_index=on"), std::string::npos);
}

TEST(PlannerTest, DetectsImpossibleQueries) {
  Graph g = gen::BuildFig1Graph();
  PatternBuilder b;
  b.Node("NOPE", "x").Output();
  EvalPlan plan = Planner(true).Plan(g, b.Build().value());
  EXPECT_TRUE(plan.provably_empty);

  PatternBuilder b2;
  b2.Node("SA", "x").Where("unknown_attr", CmpOp::kGe, 1).Output();
  EXPECT_TRUE(Planner(true).Plan(g, b2.Build().value()).provably_empty);
}

TEST(PlannerTest, DisabledPlannerScansEverything) {
  Graph g = gen::BuildFig1Graph();
  EvalPlan plan = Planner(false).Plan(g, gen::BuildFig1Pattern());
  EXPECT_FALSE(plan.match_options.use_label_index);
  EXPECT_FALSE(plan.provably_empty);
}

TEST(ResultCacheTest, HitMissAndLru) {
  ResultCache cache(2);
  auto mk = [] {
    return std::make_shared<const QueryAnswer>(
        QueryAnswer{MatchRelation(1), ResultGraph(Graph(), Pattern(), MatchRelation())});
  };
  EXPECT_EQ(cache.Get(1, 10), nullptr);
  cache.Put(1, 10, mk());
  cache.Put(2, 10, mk());
  EXPECT_NE(cache.Get(1, 10), nullptr);
  cache.Put(3, 10, mk());  // evicts fp=2 (LRU)
  EXPECT_EQ(cache.Get(2, 10), nullptr);
  EXPECT_NE(cache.Get(1, 10), nullptr);
  EXPECT_NE(cache.Get(3, 10), nullptr);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ResultCacheTest, ZeroCapacityMeansDisabled) {
  // capacity == 0 is "cache off": a Put stores nothing and a Get finds
  // nothing.
  ResultCache cache(0);
  auto answer = std::make_shared<const QueryAnswer>(
      QueryAnswer{MatchRelation(1), ResultGraph(Graph(), Pattern(), MatchRelation())});
  cache.Put(1, 10, answer);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Get(1, 10), nullptr);
}

TEST(ResultCacheTest, LruEvictionOrderPinned) {
  // Pin the exact eviction sequence: recency is refreshed by Get *and* by
  // overwriting Put, and the least-recently-used entry goes first.
  ResultCache cache(3);
  auto mk = [] {
    return std::make_shared<const QueryAnswer>(
        QueryAnswer{MatchRelation(1), ResultGraph(Graph(), Pattern(), MatchRelation())});
  };
  cache.Put(1, 10, mk());
  cache.Put(2, 10, mk());
  cache.Put(3, 10, mk());          // recency: 3, 2, 1
  EXPECT_NE(cache.Get(1, 10), nullptr);  // recency: 1, 3, 2
  cache.Put(4, 10, mk());          // evicts 2 -> recency: 4, 1, 3
  EXPECT_EQ(cache.Get(2, 10), nullptr);
  cache.Put(3, 10, mk());          // overwrite refreshes -> recency: 3, 4, 1
  cache.Put(5, 10, mk());          // evicts 1 -> recency: 5, 3, 4
  EXPECT_EQ(cache.Get(1, 10), nullptr);
  cache.Put(6, 10, mk());          // evicts 4 -> recency: 6, 5, 3
  EXPECT_EQ(cache.Get(4, 10), nullptr);
  EXPECT_NE(cache.Get(3, 10), nullptr);
  EXPECT_NE(cache.Get(5, 10), nullptr);
  EXPECT_NE(cache.Get(6, 10), nullptr);
  EXPECT_EQ(cache.size(), 3u);
}

TEST(ResultCacheTest, VersionsCoexistUnderFoldedKeys) {
  // Put starts an entry's version range at the version it was computed at:
  // entries for different versions of the same query are distinct. A lookup
  // at a newer version is a plain miss, and — crucially for snapshot-pinned
  // reads — the old-version entry is NOT dropped: it keeps serving as_of
  // readers until LRU eviction retires it.
  ResultCache cache(4);
  auto mk = [] {
    return std::make_shared<const QueryAnswer>(
        QueryAnswer{MatchRelation(1), ResultGraph(Graph(), Pattern(), MatchRelation())});
  };
  cache.Put(1, 10, mk());
  EXPECT_EQ(cache.Get(1, 11), nullptr);  // version moved on: miss, no drop
  EXPECT_EQ(cache.size(), 1u);
  cache.Put(1, 11, mk());                // the new version joins the old one
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(cache.Get(1, 11), nullptr);
  EXPECT_NE(cache.Get(1, 10), nullptr);  // pinned readers still hit
}

TEST(ResultCacheTest, OldVersionsEvictedByLruOnly) {
  // With versioned entries there is no staleness sweep: old-version
  // entries leave through the LRU door like everything else.
  ResultCache cache(2);
  auto mk = [] {
    return std::make_shared<const QueryAnswer>(
        QueryAnswer{MatchRelation(1), ResultGraph(Graph(), Pattern(), MatchRelation())});
  };
  cache.Put(1, 10, mk());
  cache.Put(1, 11, mk());  // recency: (1,11), (1,10)
  cache.Put(1, 12, mk());  // evicts (1,10)
  EXPECT_EQ(cache.Get(1, 10), nullptr);
  EXPECT_NE(cache.Get(1, 11), nullptr);
  EXPECT_NE(cache.Get(1, 12), nullptr);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ResultCacheTest, ExtendCarriesAnEntryAcrossVersions) {
  ResultCache cache(2);
  auto mk = [] {
    return std::make_shared<const QueryAnswer>(
        QueryAnswer{MatchRelation(1), ResultGraph(Graph(), Pattern(), MatchRelation())});
  };
  auto q = std::make_shared<const Pattern>(gen::BuildFig1Pattern());
  cache.Put(1, 10, mk(), q);
  cache.Put(2, 10, mk());  // no pattern: never listed, never extended
  ASSERT_EQ(cache.EntriesEndingAt(10).size(), 1u);
  EXPECT_EQ(cache.EntriesEndingAt(10)[0].fingerprint, 1u);
  EXPECT_EQ(cache.EntriesEndingAt(10)[0].pattern, q);

  EXPECT_FALSE(cache.Extend(1, 9, 14));  // only from the exact end
  EXPECT_TRUE(cache.Extend(1, 10, 14));
  for (uint64_t v : {10, 12, 14}) EXPECT_NE(cache.Get(1, v), nullptr) << v;
  EXPECT_EQ(cache.Get(1, 9), nullptr);
  EXPECT_EQ(cache.Get(1, 15), nullptr);
  EXPECT_FALSE(cache.Extend(1, 10, 20));  // no longer ends at 10
  EXPECT_TRUE(cache.EntriesEndingAt(10).empty());
  ASSERT_EQ(cache.EntriesEndingAt(14).size(), 1u);

  // A Put inside the range overwrites the entry, range kept: capacity
  // counts answers, not versions.
  auto replacement = mk();
  cache.Put(1, 12, replacement, q);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Get(1, 14), replacement);
  // A version past the range is a new entry; the LRU one (fp 2) goes.
  cache.Put(1, 15, mk(), q);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Get(2, 10), nullptr);
  EXPECT_EQ(cache.Get(1, 12), replacement);
  EXPECT_NE(cache.Get(1, 15), nullptr);
  EXPECT_NE(cache.Get(1, 15), replacement);
}

class EngineFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    g_ = gen::BuildFig1Graph();
    q_ = gen::BuildFig1Pattern();
  }
  Graph g_;
  Pattern q_;
};

/// The uncached read path as the service runs it: EvalCore::Evaluate on the
/// engine's published snapshot, with this reader's own context. `path`
/// holds the path of the last evaluation.
struct Reader {
  explicit Reader(const EngineOptions& options = {}) : core(options) {}

  Result<MatchRelation> Evaluate(QueryEngine& engine, const Pattern& q) {
    auto snap = engine.Publish();
    return core.Evaluate(*snap, q, MatchSemantics::kBoundedSimulation, {}, &ctx,
                         &path);
  }

  EvalCore core;
  MatchContext ctx;
  ServingPath path = ServingPath::kDirect;
};

TEST_F(EngineFixture, EvaluateProducesPaperAnswer) {
  QueryEngine engine(&g_);
  Reader reader;
  auto matches = reader.Evaluate(engine, q_);
  ASSERT_TRUE(matches.ok()) << matches.status();
  EXPECT_EQ(matches->TotalPairs(), 7u);
  ResultGraph rg(engine.Publish()->graph, q_, *matches, &reader.ctx);
  EXPECT_EQ(rg.NumNodes(), 7u);
  EXPECT_EQ(reader.path, ServingPath::kDirect);
}

TEST_F(EngineFixture, CompressionPathMatchesDirect) {
  EngineOptions opts;
  opts.use_compression = true;
  QueryEngine engine(&g_, opts);
  ASSERT_NE(engine.compressed(), nullptr);
  Reader reader(opts);
  auto matches = reader.Evaluate(engine, q_);
  ASSERT_TRUE(matches.ok());
  EXPECT_EQ(reader.path, ServingPath::kCompressed);
  EXPECT_EQ(*matches, ComputeBoundedSimulation(g_, q_));
}

TEST_F(EngineFixture, IncompatibleQueryFallsBackToDirect) {
  EngineOptions opts;
  opts.use_compression = true;
  QueryEngine engine(&g_, opts);
  PatternBuilder b;
  b.Node("SD", "sd").Where("specialty", CmpOp::kEq, "DBA").Output();
  Pattern q = b.Build().value();
  Reader reader(opts);
  ASSERT_TRUE(reader.Evaluate(engine, q).ok());
  EXPECT_EQ(reader.path, ServingPath::kDirect);
}

TEST_F(EngineFixture, MaintainedQueryStaysFreshUnderUpdates) {
  QueryEngine engine(&g_);
  ASSERT_TRUE(engine.RegisterMaintainedQuery(q_).ok());
  EXPECT_TRUE(engine.IsMaintained(q_));
  EXPECT_TRUE(engine.RegisterMaintainedQuery(q_).IsAlreadyExists());
  auto [src, dst] = gen::Fig1EdgeE1();
  ASSERT_TRUE(engine.ApplyUpdates({GraphUpdate::Insert(src, dst)}).ok());
  auto snap = engine.Publish();
  const MatchRelation* maintained =
      snap->Maintained(QueryCacheKey(q_, MatchSemantics::kBoundedSimulation));
  ASSERT_NE(maintained, nullptr);
  EXPECT_EQ(maintained->TotalPairs(), 8u);
  EXPECT_TRUE(*maintained == ComputeBoundedSimulation(g_, q_));
}

TEST_F(EngineFixture, SteadyStateBuildsCsrSnapshotAtMostOnce) {
  // The first publish seals every page, building its out and in CSR chunks.
  // Two consecutive publish + evaluate rounds on an unmutated graph must
  // not build more: Publish hands back the same snapshot, whose chunks are
  // the only ones the readers walk.
  QueryEngine engine(&g_);
  Reader reader;
  const size_t pages = (g_.NumNodes() + Graph::kPageNodes - 1) / Graph::kPageNodes;
  ASSERT_TRUE(reader.Evaluate(engine, q_).ok());
  const auto first = engine.Publish();
  EXPECT_EQ(first->graph->chunks_built(), 2 * pages);
  ASSERT_TRUE(reader.Evaluate(engine, q_).ok());
  EXPECT_EQ(engine.Publish(), first);  // no second capture, no new chunks
  EXPECT_EQ(reader.ctx.bound_snapshot(), first->graph);
}

TEST_F(EngineFixture, SnapshotInvalidatedByUpdates) {
  // Regression guard for the snapshot cache: evaluate -> ApplyUpdates ->
  // evaluate must reflect the new topology (a stale CSR would keep serving
  // the pre-update matches).
  QueryEngine engine(&g_);
  Reader reader;
  auto before = reader.Evaluate(engine, q_);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->TotalPairs(), 7u);

  auto [src, dst] = gen::Fig1EdgeE1();
  ASSERT_TRUE(engine.ApplyUpdates({GraphUpdate::Insert(src, dst)}).ok());
  auto inserted = reader.Evaluate(engine, q_);
  ASSERT_TRUE(inserted.ok());
  EXPECT_EQ(inserted->TotalPairs(), 8u);  // Fred joined
  EXPECT_TRUE(*inserted == ComputeBoundedSimulation(g_, q_));
  // One edge touches one out page and one in page: two chunks.
  EXPECT_EQ(engine.Publish()->graph->chunks_built(), 2u);

  ASSERT_TRUE(engine.ApplyUpdates({GraphUpdate::Delete(src, dst)}).ok());
  auto removed = reader.Evaluate(engine, q_);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(removed->TotalPairs(), 7u);  // and left again
  EXPECT_TRUE(*removed == ComputeBoundedSimulation(g_, q_));
}

TEST_F(EngineFixture, InvalidBatchChangesNothing) {
  QueryEngine engine(&g_);
  const auto published = engine.Publish();
  uint64_t version = g_.version();
  UpdateBatch bad{GraphUpdate::Insert(0, 1),  // duplicate of existing edge?
                  GraphUpdate::Delete(0, 99)};
  // (0,1) doesn't exist as edge? Bob->Walt is not an edge; but delete has a
  // bad endpoint, which must fail validation upfront.
  EXPECT_FALSE(engine.ApplyUpdates(bad).ok());
  EXPECT_EQ(g_.version(), version);
  EXPECT_EQ(engine.Publish(), published);  // no republish owed
}

TEST_F(EngineFixture, PlannerShortCircuitOnImpossibleQuery) {
  QueryEngine engine(&g_);
  PatternBuilder b;
  b.Node("NOPE", "x").Output();
  Reader reader;
  auto matches = reader.Evaluate(engine, b.Build().value());
  ASSERT_TRUE(matches.ok());
  EXPECT_TRUE(matches->IsEmpty());
  EXPECT_EQ(reader.path, ServingPath::kPlannerShortCircuit);
}

TEST_F(EngineFixture, BallIndexBuiltOnceInSteadyStateAndInvalidatedByUpdates) {
  // The ball-index analogue of the CSR snapshot regressions, plus the
  // deferred-build policy: the first query on a graph version runs on BFS
  // (no build), the second builds the index, further queries reuse it.
  // evaluate -> ApplyUpdates -> evaluate must never serve a stale ball:
  // the post-update evaluation runs on BFS again (builds unchanged) and a
  // repeat rebuilds for the new version (asserted via ball_index_builds).
  EngineOptions opts;
  opts.ball_index.build_after_uses = 2;  // pin the deferred policy under test
  QueryEngine engine(&g_, opts);
  Reader reader(opts);
  ASSERT_TRUE(reader.Evaluate(engine, q_).ok());
  EXPECT_EQ(reader.ctx.ball_index_builds(), 0u);  // deferred: no reuse yet
  ASSERT_TRUE(reader.Evaluate(engine, q_).ok());
  EXPECT_EQ(reader.ctx.ball_index_builds(), 1u);
  EXPECT_GT(reader.ctx.ball_hits(), 0u);
  const size_t hits_warm = reader.ctx.ball_hits();
  ASSERT_TRUE(reader.Evaluate(engine, q_).ok());
  EXPECT_EQ(reader.ctx.ball_index_builds(), 1u);  // steady state: no rebuild
  EXPECT_GT(reader.ctx.ball_hits(), hits_warm);

  auto [src, dst] = gen::Fig1EdgeE1();
  ASSERT_TRUE(engine.ApplyUpdates({GraphUpdate::Insert(src, dst)}).ok());
  auto inserted = reader.Evaluate(engine, q_);
  ASSERT_TRUE(inserted.ok());
  EXPECT_EQ(inserted->TotalPairs(), 8u);  // Fred joined, no stale ball
  EXPECT_TRUE(*inserted == ComputeBoundedSimulationNaive(g_, q_));
  EXPECT_EQ(reader.ctx.ball_index_builds(), 1u);  // new version: deferred again
  auto repeat = reader.Evaluate(engine, q_);
  ASSERT_TRUE(repeat.ok());
  EXPECT_EQ(reader.ctx.ball_index_builds(), 2u);  // rebuilt for the new version
  EXPECT_TRUE(*repeat == *inserted);
}

TEST_F(EngineFixture, BallIndexDisabledRunsPureBfsPaths) {
  EngineOptions opts;
  opts.ball_index.enabled = false;
  QueryEngine engine(&g_, opts);
  Reader reader(opts);
  auto matches = reader.Evaluate(engine, q_);
  ASSERT_TRUE(matches.ok());
  EXPECT_EQ(matches->TotalPairs(), 7u);
  EXPECT_EQ(reader.ctx.ball_index_builds(), 0u);
  EXPECT_EQ(reader.ctx.ball_hits(), 0u);
  EXPECT_EQ(reader.ctx.bfs_fallbacks(), 0u);  // not even counted when off
}

TEST(EngineTest, BallIndexMemoryCapFallsBackOnDenseHub) {
  // A dense hub whose balls blow the per-node cap: evaluation must fall
  // back to BFS for it (bfs_fallbacks > 0) and still produce the exact
  // relation. The hub ("SA") reaches every "SD", each of which reaches
  // every "ST".
  Graph g;
  NodeId hub = g.AddNode("SA");
  g.SetAttr(hub, "experience", AttrValue(9));
  std::vector<NodeId> mids, leaves;
  for (int i = 0; i < 40; ++i) {
    NodeId sd = g.AddNode("SD");
    g.SetAttr(sd, "experience", AttrValue(5));
    ASSERT_TRUE(g.AddEdge(hub, sd).ok());
    mids.push_back(sd);
  }
  for (int i = 0; i < 40; ++i) leaves.push_back(g.AddNode("ST"));
  for (NodeId sd : mids) {
    for (NodeId st : leaves) ASSERT_TRUE(g.AddEdge(sd, st).ok());
  }
  Pattern q = gen::TeamQuery(0);

  EngineOptions capped;
  capped.ball_index.build_after_uses = 1;
  capped.ball_index.max_ball_nodes = 8;  // hub ball is 80 nodes at depth 2
  QueryEngine engine(&g, capped);
  Reader reader(capped);
  auto matches = reader.Evaluate(engine, q);
  ASSERT_TRUE(matches.ok());
  EXPECT_GT(reader.ctx.bfs_fallbacks(), 0u);
  EXPECT_TRUE(*matches == ComputeBoundedSimulationNaive(g, q));

  // Same graph, uncapped: the hub is indexed, no fallback, same relation.
  EngineOptions uncapped;
  uncapped.ball_index.build_after_uses = 1;
  QueryEngine engine2(&g, uncapped);
  Reader reader2(uncapped);
  auto matches2 = reader2.Evaluate(engine2, q);
  ASSERT_TRUE(matches2.ok());
  EXPECT_EQ(reader2.ctx.bfs_fallbacks(), 0u);
  EXPECT_TRUE(*matches2 == *matches);
}

TEST(EngineTest, EndToEndOnCollaborationNetwork) {
  gen::CollaborationConfig cfg;
  cfg.num_people = 400;
  cfg.num_teams = 80;
  cfg.seed = 12;
  Graph g = gen::CollaborationNetwork(cfg);
  EngineOptions opts;
  opts.use_compression = true;
  QueryEngine engine(&g, opts);
  Reader reader(opts);
  for (int i = 0; i < 3; ++i) {
    Pattern q = gen::TeamQuery(i);
    auto matches = reader.Evaluate(engine, q);
    ASSERT_TRUE(matches.ok()) << matches.status();
    EXPECT_TRUE(*matches == ComputeBoundedSimulation(g, q)) << i;
  }
  UpdateBatch batch = GenerateUpdateStream(g, 20, 0.5, 13);
  ASSERT_TRUE(engine.ApplyUpdates(batch).ok());
  for (int i = 0; i < 3; ++i) {
    Pattern q = gen::TeamQuery(i);
    auto matches = reader.Evaluate(engine, q);
    ASSERT_TRUE(matches.ok());
    EXPECT_TRUE(*matches == ComputeBoundedSimulation(g, q)) << "post-update " << i;
  }
}

}  // namespace
}  // namespace expfinder
