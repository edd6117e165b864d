// Cross-module scenario: the full ExpFinder workflow on a synthetic
// collaboration network — generate, persist, query through the service with
// compression + cache + maintained queries, stream updates, rank experts,
// and export the result for the "GUI".

#include <gtest/gtest.h>

#include "src/generator/generators.h"
#include "src/matching/bounded_simulation.h"
#include "src/service/expfinder_service.h"
#include "src/storage/graph_store.h"
#include "src/viz/dot_export.h"

namespace expfinder {
namespace {

TEST(IntegrationTest, FullExpertSearchWorkflow) {
  // 1. Dataset.
  gen::CollaborationConfig cfg;
  cfg.num_people = 500;
  cfg.num_teams = 100;
  cfg.seed = 2013;
  Graph g = gen::CollaborationNetwork(cfg);

  // 2. Persist and reload through the file store.
  auto store = GraphStore::Open(::testing::TempDir() + "/integration_store");
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->PutGraph("collab", g).ok());
  auto reloaded = store->GetGraph("collab");
  ASSERT_TRUE(reloaded.ok());
  Graph work = std::move(reloaded).value();
  ASSERT_EQ(work.NumNodes(), g.NumNodes());

  // 3. Service with every module enabled.
  ServiceOptions opts;
  opts.engine.use_compression = true;
  ExpFinderService service(&work, opts);
  QueryRequest req;
  req.pattern = gen::TeamQuery(0);
  const Pattern& q = req.pattern;
  ASSERT_TRUE(service.RegisterMaintainedQuery(q).ok());

  auto baseline = service.Query(req);
  ASSERT_TRUE(baseline.ok());
  MatchRelation expected = ComputeBoundedSimulation(work, q);
  EXPECT_TRUE(baseline->answer->matches == expected);

  // 4. Stream updates through the service; maintained query stays exact.
  UpdateBatch stream = GenerateUpdateStream(work, 50, 0.5, 99);
  for (size_t i = 0; i < stream.size(); i += 10) {
    UpdateBatch batch(stream.begin() + i, stream.begin() + i + 10);
    ASSERT_TRUE(service.Mutate(batch).ok()) << "batch at " << i;
    auto fresh = service.Query(req);
    ASSERT_TRUE(fresh.ok());
    ASSERT_TRUE(fresh->answer->matches == ComputeBoundedSimulation(work, q))
        << "batch at " << i;
  }
  EXPECT_EQ(service.stats().maintained_hits, 5u + 1u);

  // 5. Rank the experts and export for visualization.
  QueryRequest ranked_req = req;
  ranked_req.top_k = 5;
  auto ranked = service.Query(ranked_req);
  ASSERT_TRUE(ranked.ok());
  const std::vector<RankedMatch>& top = ranked->ranked;
  if (!top.empty()) {
    for (size_t i = 1; i < top.size(); ++i) {
      EXPECT_LE(top[i - 1].score, top[i].score);
    }
    std::string dot =
        ResultGraphToDot(ranked->answer->result_graph, work, q, {top[0].node});
    EXPECT_NE(dot.find("color=red"), std::string::npos);
  }

  // 6. Persist the final matches.
  const MatchRelation& final_matches = ranked->answer->matches;
  ASSERT_TRUE(store->PutMatches("team0", final_matches).ok());
  auto back = store->GetMatches("team0");
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.value() == final_matches);
}

TEST(IntegrationTest, CompressedAndDirectEnginesAgreeUnderChurn) {
  Graph g1 = gen::TwitterLike({.n = 400, .out_per_node = 4, .seed = 8});
  Graph g2 = g1;
  ServiceOptions with, without;
  with.engine.use_compression = true;
  without.engine.use_compression = false;
  ExpFinderService compressed_service(&g1, with);
  ExpFinderService direct_service(&g2, without);
  UpdateBatch stream = GenerateUpdateStream(g1, 30, 0.5, 77);
  for (size_t i = 0; i < stream.size(); i += 10) {
    UpdateBatch batch(stream.begin() + i, stream.begin() + i + 10);
    ASSERT_TRUE(compressed_service.Mutate(batch).ok());
    ASSERT_TRUE(direct_service.Mutate(batch).ok());
    for (int j = 0; j < 2; ++j) {
      QueryRequest req;
      req.pattern = gen::RandomPattern(4, 4, 3, 0.5, i * 31 + j);
      auto a = compressed_service.Query(req);
      auto b = direct_service.Query(req);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      EXPECT_TRUE(a->answer->matches == b->answer->matches)
          << "step " << i << " q " << j;
    }
  }
  EXPECT_GT(compressed_service.stats().compressed_evals, 0u);
}

}  // namespace
}  // namespace expfinder
