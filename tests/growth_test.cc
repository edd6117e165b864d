// Node-growth support: the incremental states, compressed graph and engine
// must stay consistent when people join the network (the engine is read
// through the service, its only reader).

#include <gtest/gtest.h>

#include "src/generator/generators.h"
#include "src/incremental/inc_bounded.h"
#include "src/matching/bounded_simulation.h"
#include "src/matching/simulation.h"
#include "src/service/expfinder_service.h"

namespace expfinder {
namespace {

TEST(GrowthTest, IncrementalSimulationAcceptsNewNodes) {
  Graph g = gen::ErdosRenyi(40, 160, 2);
  Pattern q = gen::RandomPattern(3, 3, 1, 0.3, 12);
  IncrementalBoundedSimulation inc(&g, q);
  for (int round = 0; round < 3; ++round) {
    NodeId v = g.AddNode("SD");
    g.SetAttr(v, "experience", AttrValue(7));
    inc.OnNodeAdded(v);
    ASSERT_TRUE(inc.Snapshot() == ComputeSimulationNaive(g, q)) << "round " << round;
    // Connect the newcomer and keep checking.
    UpdateBatch batch{GraphUpdate::Insert(v, static_cast<NodeId>(round)),
                      GraphUpdate::Insert(static_cast<NodeId>(round + 5), v)};
    ASSERT_TRUE(inc.ApplyBatch(batch).ok());
    ASSERT_TRUE(inc.Snapshot() == ComputeSimulationNaive(g, q)) << "round " << round;
  }
}

TEST(GrowthTest, IncrementalBoundedAcceptsNewNodes) {
  Graph g = gen::CollaborationNetwork({.num_people = 80, .num_teams = 20, .seed = 4});
  Pattern q = gen::TeamQuery(0);
  IncrementalBoundedSimulation inc(&g, q);
  for (int round = 0; round < 3; ++round) {
    NodeId v = g.AddNode(round % 2 ? "SA" : "ST");
    g.SetAttr(v, "experience", AttrValue(6));
    inc.OnNodeAdded(v);
    ASSERT_TRUE(inc.Snapshot() == ComputeBoundedSimulation(g, q)) << round;
    UpdateBatch batch{GraphUpdate::Insert(v, static_cast<NodeId>(round * 3)),
                      GraphUpdate::Insert(static_cast<NodeId>(round * 7 + 1), v)};
    ASSERT_TRUE(inc.ApplyBatch(batch).ok());
    ASSERT_TRUE(inc.Snapshot() == ComputeBoundedSimulation(g, q)) << round;
  }
}

TEST(GrowthTest, IsolatedNewcomerMatchesLeafPatternNodesOnly) {
  Graph g = gen::BuildFig1Graph();
  Pattern q = gen::BuildFig1Pattern();
  IncrementalBoundedSimulation inc(&g, q);
  NodeId tester = g.AddNode("ST");
  g.SetAttr(tester, "experience", AttrValue(4));
  inc.OnNodeAdded(tester);
  auto st = *q.FindNode("ST");
  auto sd = *q.FindNode("SD");
  // ST has no out-edges in Q: the isolated tester matches immediately.
  EXPECT_TRUE(inc.Snapshot().Contains(st, tester));
  EXPECT_FALSE(inc.Snapshot().Contains(sd, tester));
  EXPECT_TRUE(inc.Snapshot() == ComputeBoundedSimulation(g, q));
}

TEST(GrowthTest, EngineAddNodeKeepsEverythingConsistent) {
  Graph g = gen::CollaborationNetwork({.num_people = 120, .num_teams = 25, .seed = 6});
  ServiceOptions opts;
  opts.engine.use_compression = true;
  ExpFinderService service(&g, opts);
  QueryRequest req;
  req.pattern = gen::TeamQuery(0);
  const Pattern& q = req.pattern;
  ASSERT_TRUE(service.RegisterMaintainedQuery(q).ok());
  ASSERT_TRUE(service.Query(req).ok());

  auto added = service.AddNode("SA", {{"experience", AttrValue(9)},
                                      {"name", AttrValue("Newcomer")}});
  ASSERT_TRUE(added.ok()) << added.status();
  NodeId v = added.value();
  EXPECT_EQ(g.DisplayName(v), "Newcomer");

  // Maintained query, compression and direct evaluation all agree.
  auto fresh = service.Query(req);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->path, ServingPath::kMaintained);
  EXPECT_TRUE(fresh->answer->matches == ComputeBoundedSimulation(g, q));
  ASSERT_NE(service.compressed(), nullptr);
  EXPECT_EQ(service.compressed()->partition().block_of.size(), g.NumNodes());

  // Wire the newcomer in and check again through updates.
  ASSERT_TRUE(service.Mutate({GraphUpdate::Insert(v, 0),
                              GraphUpdate::Insert(v, 1)}).ok());
  auto after = service.Query(req);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->answer->matches == ComputeBoundedSimulation(g, q));
}

TEST(GrowthTest, EngineMaintainedDualQuery) {
  Graph g = gen::CollaborationNetwork({.num_people = 100, .num_teams = 20, .seed = 8});
  ExpFinderService service(&g);
  // A bounded pattern and a bound-1 (graph simulation) one.
  PatternBuilder b;
  auto sa = b.Node("SA", "SA").Output();
  auto sd = b.Node("SD", "SD");
  auto st = b.Node("ST", "ST");
  b.Edge(sa, sd, 1).Edge(sd, st, 1);
  const std::vector<Pattern> patterns = {gen::TeamQuery(0), b.Build().value()};
  for (const Pattern& q : patterns) {
    ASSERT_TRUE(service.RegisterMaintainedQuery(q, MatchSemantics::kDualSimulation).ok());
    EXPECT_TRUE(service.IsMaintained(q, MatchSemantics::kDualSimulation));
    EXPECT_FALSE(service.IsMaintained(q, MatchSemantics::kBoundedSimulation));
    // The same pattern can additionally be maintained under bounded semantics.
    ASSERT_TRUE(service.RegisterMaintainedQuery(q).ok());
  }

  UpdateBatch stream = GenerateUpdateStream(g, 30, 0.5, 12);
  for (size_t i = 0; i < stream.size(); i += 10) {
    UpdateBatch batch(stream.begin() + i, stream.begin() + i + 10);
    ASSERT_TRUE(service.Mutate(batch).ok());
    for (const Pattern& q : patterns) {
      QueryRequest dual_req;
      dual_req.pattern = q;
      dual_req.semantics = MatchSemantics::kDualSimulation;
      QueryRequest bounded_req;
      bounded_req.pattern = q;
      auto dual = service.Query(dual_req);
      auto bounded = service.Query(bounded_req);
      ASSERT_TRUE(dual.ok());
      ASSERT_TRUE(bounded.ok());
      ASSERT_TRUE(dual->answer->matches ==
                  ComputeBoundedSimulation(g, q, {}, MatchSemantics::kDualSimulation))
          << i;
      ASSERT_TRUE(bounded->answer->matches == ComputeBoundedSimulation(g, q)) << i;
      if (q.IsSimulationPattern()) {
        ASSERT_TRUE(bounded->answer->matches == ComputeSimulationNaive(g, q)) << i;
      }
    }
  }
  EXPECT_GE(service.stats().maintained_hits, 12u);
}

TEST(GrowthTest, EngineDualSemantics) {
  Graph g = gen::BuildFig1Graph();
  NodeId tom = g.AddNode("ST");
  g.SetAttr(tom, "experience", AttrValue(3));
  ExpFinderService service(&g);
  QueryRequest req;
  req.pattern = gen::BuildFig1Pattern();
  auto bounded = service.Query(req);
  req.semantics = MatchSemantics::kDualSimulation;
  auto dual = service.Query(req);
  ASSERT_TRUE(bounded.ok());
  ASSERT_TRUE(dual.ok());
  auto st = *req.pattern.FindNode("ST");
  EXPECT_TRUE(bounded->answer->matches.Contains(st, tom));
  EXPECT_FALSE(dual->answer->matches.Contains(st, tom));
  // The two semantics cache independently.
  EXPECT_EQ(dual->path, ServingPath::kDirect);
  req.semantics = MatchSemantics::kBoundedSimulation;
  auto bounded2 = service.Query(req);
  ASSERT_TRUE(bounded2.ok());
  EXPECT_EQ(bounded2->path, ServingPath::kCache);
  EXPECT_TRUE(bounded2->answer->matches.Contains(st, tom));
}

TEST(GrowthTest, OnNodeAddedValidatesPreconditions) {
  Graph g = gen::BuildFig1Graph();
  Pattern q = gen::BuildFig1Pattern();
  IncrementalBoundedSimulation inc(&g, q);
  NodeId v = g.AddNode("ST");
  NodeId w = g.AddNode("ST");
  // Registering the wrong (non-latest-contiguous) node dies.
  EXPECT_DEATH(inc.OnNodeAdded(w), "OnNodeAdded");
  (void)v;
}

}  // namespace
}  // namespace expfinder
