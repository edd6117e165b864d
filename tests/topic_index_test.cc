// Topic inverted index: tokenization/postings vs a naive inversion oracle,
// slot lifecycle (deferred build, first-limits-win, failure memoization,
// sharing across edge churn, concurrent build), indexed seeding
// bit-identical to scans, free-text compilation, ranking fusion, and the
// engine / service telemetry. Mirrors khop_index_test.cc for the slot half.

#include "src/index/topic_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/engine/query_engine.h"
#include "src/generator/generators.h"
#include "src/incremental/update.h"
#include "src/matching/bounded_simulation.h"
#include "src/matching/match_context.h"
#include "src/query/pattern_parser.h"
#include "src/ranking/fusion.h"
#include "src/ranking/topk.h"
#include "src/service/expfinder_service.h"
#include "src/util/random.h"
#include "src/util/string_util.h"

namespace expfinder {
namespace {

/// The naive inversion the index must reproduce: token -> ascending node
/// ids, where a node's token set is TopicTokens(label) ∪ TopicTokens(every
/// string attribute value).
std::map<std::string, std::vector<NodeId>> NaiveInversion(const Graph& g) {
  std::map<std::string, std::vector<NodeId>> postings;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    std::vector<std::string> toks;
    AppendTopicTokens(g.NodeLabelName(v), &toks);
    for (const auto& [key, value] : g.Attrs(v)) {
      if (value.is_string()) AppendTopicTokens(value.AsString(), &toks);
    }
    std::sort(toks.begin(), toks.end());
    toks.erase(std::unique(toks.begin(), toks.end()), toks.end());
    for (const std::string& t : toks) postings[t].push_back(v);
  }
  return postings;
}

std::vector<NodeId> Postings(const TopicIndex& index, uint32_t term) {
  std::vector<NodeId> out;
  index.AppendPostings(term, &out);
  return out;
}

TEST(TopicIndexTest, PostingsMatchNaiveInversion) {
  for (uint64_t seed : {1u, 7u, 23u}) {
    Graph g = gen::ErdosRenyi(150, 450, seed, gen::TopicExpertiseModel());
    auto index = TopicIndex::Build(g, {});
    ASSERT_NE(index, nullptr);
    auto oracle = NaiveInversion(g);
    ASSERT_EQ(index->NumTerms(), oracle.size());
    size_t total = 0;
    for (const auto& [token, nodes] : oracle) {
      auto term = index->FindTerm(token);
      ASSERT_TRUE(term.has_value()) << token;
      EXPECT_EQ(index->TermName(*term), token);
      EXPECT_EQ(index->DocFreq(*term), nodes.size()) << token;
      EXPECT_EQ(Postings(*index, *term), nodes) << token;
      total += nodes.size();
    }
    EXPECT_EQ(index->TotalPostings(), total);
    EXPECT_EQ(index->NumNodes(), g.NumNodes());
    EXPECT_FALSE(index->FindTerm("no such token ever").has_value());
  }
}

TEST(TopicIndexTest, DeltaVarintsBeatPlainIdArrays) {
  Graph g = gen::ErdosRenyi(500, 1500, 3, gen::TopicExpertiseModel());
  auto index = TopicIndex::Build(g, {});
  ASSERT_NE(index, nullptr);
  EXPECT_GT(index->TotalPostings(), 0u);
  EXPECT_LT(index->PostingBytes(), index->TotalPostings() * sizeof(NodeId));
}

TEST(TopicIndexTest, DisabledOrOverBudgetRefusesBuild) {
  Graph g = gen::ErdosRenyi(60, 180, 9, gen::TopicExpertiseModel());
  TopicIndexOptions limits;
  limits.enabled = false;
  EXPECT_EQ(TopicIndex::Build(g, limits), nullptr);
  limits.enabled = true;
  limits.max_total_postings = 1;
  EXPECT_EQ(TopicIndex::Build(g, limits), nullptr);
  limits.max_total_postings = size_t{1} << 24;
  EXPECT_NE(TopicIndex::Build(g, limits), nullptr);
}

// --- TopicIndexSlot -------------------------------------------------------

TEST(TopicIndexSlotTest, DeferredBuildCountsUses) {
  Graph g = gen::ErdosRenyi(40, 120, 11, gen::TopicExpertiseModel());
  auto slot = g.topic_slot();
  ASSERT_NE(slot, nullptr);
  TopicIndexOptions opts;
  opts.build_after_uses = 3;
  bool built = false;
  EXPECT_EQ(slot->Get(g, opts, &built), nullptr);  // use 1: deferred
  EXPECT_FALSE(built);
  EXPECT_EQ(slot->Get(g, opts, &built), nullptr);  // use 2: deferred
  EXPECT_EQ(slot->Cached(), nullptr);
  const TopicIndex* index = slot->Get(g, opts, &built);  // use 3: builds
  ASSERT_NE(index, nullptr);
  EXPECT_TRUE(built);
  EXPECT_EQ(slot->Cached(), index);
  built = false;
  EXPECT_EQ(slot->Get(g, opts, &built), index);  // steady state: no rebuild
  EXPECT_FALSE(built);
}

TEST(TopicIndexSlotTest, FirstLimitsGovernTheBuildAndFailureIsMemoized) {
  Graph g = gen::ErdosRenyi(40, 120, 13, gen::TopicExpertiseModel());
  TopicIndexOptions first;
  first.build_after_uses = 2;
  TopicIndexOptions other = first;
  other.max_total_postings = 123;
  bool built = false;
  // Pre-build, mismatched limits neither build nor age the use counter.
  EXPECT_EQ(g.topic_slot()->Get(g, first, &built), nullptr);  // use 1
  EXPECT_EQ(g.topic_slot()->Get(g, other, &built), nullptr);  // mismatched
  const TopicIndex* index = g.topic_slot()->Get(g, first, &built);  // use 2
  ASSERT_NE(index, nullptr);
  EXPECT_TRUE(built);
  // Once built, every enabled caller shares the index (content is
  // limits-independent), and disabled callers still opt out.
  EXPECT_EQ(g.topic_slot()->Get(g, other, &built), index);
  TopicIndexOptions disabled = first;
  disabled.enabled = false;
  EXPECT_EQ(g.topic_slot()->Get(g, disabled, &built), nullptr);

  // A refused build (over budget) is memoized: later calls stay nullptr
  // without retrying.
  Graph h = gen::ErdosRenyi(40, 120, 13, gen::TopicExpertiseModel());
  TopicIndexOptions tiny;
  tiny.build_after_uses = 1;
  tiny.max_total_postings = 1;
  EXPECT_EQ(h.topic_slot()->Get(h, tiny, &built), nullptr);
  EXPECT_EQ(h.topic_slot()->Get(h, tiny, &built), nullptr);
  EXPECT_EQ(h.topic_slot()->Cached(), nullptr);
}

TEST(TopicIndexSlotTest, SharedAcrossEdgeChurnReplacedByContentMutations) {
  Graph g;
  for (int i = 0; i < 4; ++i) {
    NodeId v = g.AddNode("P");
    g.SetAttr(v, "topics", AttrValue("graph databases"));
  }
  auto s1 = g.Publish();
  TopicIndexOptions opts;
  opts.build_after_uses = 1;
  bool built = false;
  const TopicIndex* index = s1->TopicIndexFor(opts, &built);
  ASSERT_NE(index, nullptr);
  // Pure edge churn: the next published snapshot shares the built index.
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  auto s2 = g.Publish();
  EXPECT_EQ(s2->CachedTopicIndex(), index);
  EXPECT_EQ(s2->TopicIndexFor(opts, &built), index);
  // Content mutation: the slot is replaced; old snapshots keep theirs.
  g.SetAttr(2, "topics", AttrValue("stream processing"));
  auto s3 = g.Publish();
  EXPECT_EQ(s3->CachedTopicIndex(), nullptr);
  EXPECT_EQ(s1->CachedTopicIndex(), index);
  const TopicIndex* rebuilt = s3->TopicIndexFor(opts, &built);
  ASSERT_NE(rebuilt, nullptr);
  EXPECT_NE(rebuilt, index);
  auto term = rebuilt->FindTerm("stream");
  ASSERT_TRUE(term.has_value());
  EXPECT_EQ(Postings(*rebuilt, *term), std::vector<NodeId>{2});
}

TEST(TopicIndexSlotTest, ConcurrentGetsBuildExactlyOnce) {
  Graph g = gen::ErdosRenyi(200, 600, 17, gen::TopicExpertiseModel());
  auto slot = g.topic_slot();
  TopicIndexOptions opts;
  opts.build_after_uses = 1;
  constexpr int kThreads = 8;
  std::vector<const TopicIndex*> seen(kThreads, nullptr);
  std::vector<int> builds(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      bool built = false;
      seen[t] = slot->Get(g, opts, &built);
      builds[t] = built ? 1 : 0;
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_NE(seen[0], nullptr);
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
  EXPECT_EQ(std::count(builds.begin(), builds.end(), 1), 1);
}

TEST(TopicIndexSlotTest, FreshUnsharedSlotIsKeptAcrossBulkLoads) {
  Graph g;
  g.AddNode("P");
  std::weak_ptr<TopicIndexSlot> fresh = g.topic_slot();
  // Untouched and unshared: bulk-load mutations keep the same slot instead
  // of allocating a replacement per AddNode/SetAttr.
  NodeId v = g.AddNode("P");
  g.SetAttr(v, "topics", AttrValue("graph databases"));
  EXPECT_EQ(g.topic_slot(), fresh.lock());

  // A query touching the slot consumes it: the next mutation replaces it.
  TopicIndexOptions opts;
  opts.build_after_uses = 1;
  bool built = false;
  ASSERT_NE(g.topic_slot()->Get(g, opts, &built), nullptr);
  g.SetAttr(v, "topics", AttrValue("stream processing"));
  EXPECT_TRUE(fresh.expired());

  // Sharing with a snapshot forces replacement even while untouched.
  std::weak_ptr<TopicIndexSlot> shared = g.topic_slot();
  auto snap = g.Publish();
  g.AddNode("P");
  EXPECT_FALSE(shared.expired());  // the snapshot still holds the old slot
  EXPECT_NE(g.topic_slot(), shared.lock());
}

// --- Seeding equivalence --------------------------------------------------

Pattern RandomTopicPattern(Rng& rng, const gen::LabelModel& model) {
  PatternBuilder b;
  const size_t num_nodes = 1 + rng.NextBounded(3);
  std::vector<PatternBuilder::NodeRef> refs;
  for (size_t i = 0; i < num_nodes; ++i) {
    const bool wildcard = rng.NextBool();
    auto ref = b.Node(wildcard ? "" : model.labels[rng.NextBounded(model.labels.size())]);
    switch (rng.NextBounded(5)) {
      case 0:
        ref.Where("topics", CmpOp::kHasToken,
                  AttrValue(model.topics[rng.NextBounded(model.topics.size())]));
        break;
      case 1:
        ref.Where("*", CmpOp::kHasToken,
                  AttrValue(model.topics[rng.NextBounded(model.topics.size())]));
        break;
      case 2:
        if (!model.specialties.empty()) {
          ref.Where("specialty", CmpOp::kEq,
                    AttrValue(model.specialties[rng.NextBounded(model.specialties.size())]));
        }
        break;
      case 3:
        ref.Where("experience", CmpOp::kGe, AttrValue(rng.NextInt(0, 10)));
        break;
      default:
        break;  // label only
    }
    refs.push_back(ref);
  }
  for (size_t i = 1; i < num_nodes; ++i) {
    b.Edge(refs[i - 1], refs[i],
           rng.NextBool() ? Distance{1} : static_cast<Distance>(2 + rng.NextBounded(2)));
  }
  refs[rng.NextBounded(num_nodes)].Output();
  return b.Build().value();
}

TEST(TopicSeedingTest, IndexedSeedingBitIdenticalToScan) {
  Rng rng(20260808);
  for (uint64_t seed : {2u, 19u, 41u}) {
    Graph g = gen::ErdosRenyi(160, 480, seed, gen::TopicExpertiseModel());
    auto index = TopicIndex::Build(g, {});
    ASSERT_NE(index, nullptr);
    for (int iter = 0; iter < 25; ++iter) {
      Pattern q = RandomTopicPattern(rng, gen::TopicExpertiseModel());
      MatchOptions options;
      CandidateSets plain = ComputeCandidates(g, q, options);
      TopicSeedStats stats;
      CandidateSets indexed = ComputeCandidates(g, q, options, index.get(), &stats);
      ASSERT_EQ(plain.list, indexed.list) << q.ToText();
      for (PatternNodeId u = 0; u < q.NumNodes(); ++u) {
        for (NodeId v = 0; v < g.NumNodes(); ++v) {
          ASSERT_EQ(plain.bitmap.Test(u, v), indexed.bitmap.Test(u, v));
        }
      }
    }
  }
}

TEST(TopicSeedingTest, UnknownTokenIsAPostingHitWithEmptyCandidates) {
  Graph g = gen::ErdosRenyi(50, 150, 3, gen::TopicExpertiseModel());
  auto index = TopicIndex::Build(g, {});
  ASSERT_NE(index, nullptr);
  PatternBuilder b;
  b.Node("").Where("topics", CmpOp::kHasToken, AttrValue("xyzzyplugh")).Output();
  Pattern q = b.Build().value();
  TopicSeedStats stats;
  CandidateSets cand = ComputeCandidates(g, q, {}, index.get(), &stats);
  EXPECT_TRUE(cand.list[0].empty());
  EXPECT_EQ(stats.posting_hits, 1u);
  EXPECT_EQ(stats.seed_scan_fallbacks, 0u);
}

TEST(TopicSeedingTest, UniversalTokenFallsBackToTheScan) {
  // Every node carries the token, so the posting list is no smaller than
  // the scan: seeding must keep the scan and count a fallback.
  Graph g;
  for (int i = 0; i < 20; ++i) {
    NodeId v = g.AddNode("P");
    g.SetAttr(v, "topics", AttrValue("ubiquitous"));
  }
  auto index = TopicIndex::Build(g, {});
  ASSERT_NE(index, nullptr);
  PatternBuilder b;
  b.Node("").Where("topics", CmpOp::kHasToken, AttrValue("ubiquitous")).Output();
  Pattern q = b.Build().value();
  TopicSeedStats stats;
  CandidateSets cand = ComputeCandidates(g, q, {}, index.get(), &stats);
  EXPECT_EQ(cand.list[0].size(), 20u);
  EXPECT_EQ(stats.posting_hits, 0u);
  EXPECT_EQ(stats.seed_scan_fallbacks, 1u);
}

TEST(TopicSeedingTest, NullIndexCountsTextNodesAsFallbacks) {
  Graph g = gen::ErdosRenyi(30, 90, 3, gen::TopicExpertiseModel());
  PatternBuilder b;
  b.Node("").Where("topics", CmpOp::kHasToken, AttrValue("compilers")).Output();
  Pattern q = b.Build().value();
  TopicSeedStats stats;
  CandidateSets with_null =
      ComputeCandidates(g, q, {}, static_cast<const TopicIndex*>(nullptr), &stats);
  EXPECT_EQ(with_null.list, ComputeCandidates(g, q, {}).list);
  EXPECT_EQ(stats.posting_hits, 0u);
  EXPECT_EQ(stats.seed_scan_fallbacks, 1u);
}

TEST(TopicSeedingTest, MatcherSweepRelationsIdenticalOnOffCappedAcrossThreads) {
  Rng rng(77);
  const gen::LabelModel model = gen::TopicExpertiseModel();
  for (uint64_t seed : {5u, 31u}) {
    Graph g = gen::ErdosRenyi(140, 420, seed, model);
    auto snap = g.Publish();
    for (int iter = 0; iter < 8; ++iter) {
      Pattern q = RandomTopicPattern(rng, model);
      // Scan-seeded oracles: a one-shot call with the index enabled would
      // share `snap`'s topic slot (same content) and claim it first with
      // the default limits.
      MatchOptions scan;
      scan.topic_index.enabled = false;
      const MatchRelation bounded_oracle = ComputeBoundedSimulation(g, q, scan);
      const MatchRelation dual_oracle =
          ComputeBoundedSimulation(g, q, scan, MatchSemantics::kDualSimulation);
      for (uint32_t threads : {1u, 4u}) {
        for (int mode = 0; mode < 3; ++mode) {
          MatchOptions options;
          options.num_threads = threads;
          options.topic_index.build_after_uses = 1;
          if (mode == 1) options.topic_index.enabled = false;
          if (mode == 2) options.topic_index.max_total_postings = 1;
          MatchContext ctx;
          EXPECT_EQ(ComputeBoundedSimulation(snap, q, options, &ctx), bounded_oracle)
              << "threads=" << threads << " mode=" << mode << "\n" << q.ToText();
          MatchContext dual_ctx;
          EXPECT_EQ(ComputeBoundedSimulation(snap, q, options, &dual_ctx,
                                             MatchSemantics::kDualSimulation),
                    dual_oracle)
              << "threads=" << threads << " mode=" << mode << "\n" << q.ToText();
        }
      }
    }
  }
}

// --- Free-text compilation ------------------------------------------------

TEST(CompileTopicTermsTest, DetectsTextPredicates) {
  PatternBuilder numeric;
  numeric.Node("SA").Where("experience", CmpOp::kGe, AttrValue(5)).Output();
  EXPECT_FALSE(HasTextPredicates(numeric.Build().value()));

  PatternBuilder contains;
  contains.Node("").Where("name", CmpOp::kContains, AttrValue("ann")).Output();
  EXPECT_FALSE(HasTextPredicates(contains.Build().value()));  // not indexable

  PatternBuilder eq;
  eq.Node("").Where("specialty", CmpOp::kEq, AttrValue("graph databases")).Output();
  EXPECT_TRUE(HasTextPredicates(eq.Build().value()));

  PatternBuilder tok;
  tok.Node("").Where("*", CmpOp::kHasToken, AttrValue("compilers")).Output();
  EXPECT_TRUE(HasTextPredicates(tok.Build().value()));

  PatternBuilder tokenless;
  tokenless.Node("").Where("specialty", CmpOp::kEq, AttrValue("!!!")).Output();
  EXPECT_FALSE(HasTextPredicates(tokenless.Build().value()));
}

TEST(CompileTopicTermsTest, CompilesSortedUniqueTokensOntoTheOutputNode) {
  PatternBuilder b;
  b.Node("", "x").Output();
  Pattern q = b.Build().value();
  Pattern compiled = CompileTopicTerms(q, {"Graph  DATABASES!", "graph"});
  const auto& conds = compiled.node(*compiled.output_node()).conditions;
  ASSERT_EQ(conds.size(), 2u);
  EXPECT_TRUE(conds[0] == Condition("*", CmpOp::kHasToken, AttrValue("databases")));
  EXPECT_TRUE(conds[1] == Condition("*", CmpOp::kHasToken, AttrValue("graph")));
  EXPECT_TRUE(HasTextPredicates(compiled));

  // The compiled pattern is an ordinary pattern: it round-trips through the
  // text format with an identical rendering.
  auto reparsed = ParsePatternText(compiled.ToText());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\n" << compiled.ToText();
  EXPECT_EQ(reparsed->ToText(), compiled.ToText());

  // No terms / tokenless terms compile to the pattern unchanged.
  EXPECT_EQ(CompileTopicTerms(q, {}).ToText(), q.ToText());
  EXPECT_EQ(CompileTopicTerms(q, {"!!!", "  "}).ToText(), q.ToText());
}

TEST(CompileTopicTermsTest, CompiledPatternMatchesExactlyTheTopicalNodes) {
  Graph g;
  NodeId a = g.AddNode("P");
  g.SetAttr(a, "topics", AttrValue("graph databases; compilers"));
  NodeId bb = g.AddNode("P");
  g.SetAttr(bb, "topics", AttrValue("graph theory"));
  NodeId c = g.AddNode("Graph Databases");  // label tokens count too
  PatternBuilder pb;
  pb.Node("").Output();
  Pattern compiled = CompileTopicTerms(pb.Build().value(), {"graph databases"});
  MatchRelation m = ComputeBoundedSimulation(g, compiled);
  EXPECT_EQ(m.MatchesOf(0), (std::vector<NodeId>{a, c}));
}

// --- Ranking fusion -------------------------------------------------------

TEST(TopicFusionTest, TopicalExpertsOutrankEquallyStructuredLoners) {
  Graph g;
  NodeId both = g.AddNode("P");
  g.SetAttr(both, "topics", AttrValue("graph databases; query optimization"));
  NodeId one = g.AddNode("P");
  g.SetAttr(one, "topics", AttrValue("graph theory"));
  NodeId none = g.AddNode("P");
  g.SetAttr(none, "topics", AttrValue("operating systems"));
  PatternBuilder b;
  b.Node("P").Output();
  Pattern q = b.Build().value();
  MatchRelation m = ComputeBoundedSimulation(g, q);
  ResultGraph gr(g, q, m);
  auto ranked = TopKTopicFusion(gr, q, g, {"graph databases"}, 10);
  ASSERT_TRUE(ranked.ok()) << ranked.status();
  ASSERT_EQ(ranked->size(), 3u);
  EXPECT_EQ((*ranked)[0].node, both);  // both query tokens
  EXPECT_EQ((*ranked)[1].node, one);   // one token
  EXPECT_EQ((*ranked)[2].node, none);  // none
  // Deterministic: a second run reproduces nodes and scores exactly.
  auto again = TopKTopicFusion(gr, q, g, {"graph databases"}, 10);
  ASSERT_TRUE(again.ok());
  for (size_t i = 0; i < ranked->size(); ++i) {
    EXPECT_EQ((*again)[i].node, (*ranked)[i].node);
    EXPECT_EQ((*again)[i].score, (*ranked)[i].score);
  }
  // K truncates.
  auto top1 = TopKTopicFusion(gr, q, g, {"graph databases"}, 1);
  ASSERT_TRUE(top1.ok());
  ASSERT_EQ(top1->size(), 1u);
  EXPECT_EQ((*top1)[0].node, both);
}

TEST(TopicFusionTest, EmptyResultGraphRanksNothing) {
  // A compiled topic pattern can match nothing (an expertise term absent
  // from the graph); fusion over the 0-node result graph must return an
  // empty ranking, not crash.
  Graph g;
  NodeId v = g.AddNode("P");
  g.SetAttr(v, "topics", AttrValue("compilers"));
  PatternBuilder b;
  b.Node("P").Where("topics", CmpOp::kHasToken, AttrValue("quantum")).Output();
  Pattern q = b.Build().value();
  MatchRelation m = ComputeBoundedSimulation(g, q);
  ResultGraph gr(g, q, m);
  ASSERT_EQ(gr.NumNodes(), 0u);
  auto ranked = TopKTopicFusion(gr, q, g, {"quantum computing"}, 5);
  ASSERT_TRUE(ranked.ok()) << ranked.status();
  EXPECT_TRUE(ranked->empty());
}

TEST(TopicFusionTest, ReinforcementPullsUpNeighborsOfRelevantExperts) {
  // Two structurally identical candidates with no topical overlap; one
  // collaborates with a highly topical expert, the other with a non-topical
  // one. Fusion must prefer the well-connected candidate.
  Graph g;
  NodeId cand_a = g.AddNode("P");
  g.SetAttr(cand_a, "topics", AttrValue("compilers"));
  NodeId cand_b = g.AddNode("P");
  g.SetAttr(cand_b, "topics", AttrValue("compilers"));
  NodeId expert = g.AddNode("P");
  g.SetAttr(expert, "topics", AttrValue("graph databases"));
  NodeId bystander = g.AddNode("P");
  g.SetAttr(bystander, "topics", AttrValue("operating systems"));
  ASSERT_TRUE(g.AddEdge(cand_a, expert).ok());
  ASSERT_TRUE(g.AddEdge(cand_b, bystander).ok());
  PatternBuilder b;
  auto out = b.Node("P").Output();
  auto peer = b.Node("P");
  b.Edge(out, peer);
  Pattern q = b.Build().value();
  MatchRelation m = ComputeBoundedSimulation(g, q);
  ResultGraph gr(g, q, m);
  auto ranked = TopKTopicFusion(gr, q, g, {"graph databases"}, 2);
  ASSERT_TRUE(ranked.ok()) << ranked.status();
  ASSERT_EQ(ranked->size(), 2u);
  EXPECT_EQ((*ranked)[0].node, cand_a);
  EXPECT_EQ((*ranked)[1].node, cand_b);
}

TEST(TopicFusionTest, TopKMatchesWithRejectsTheFusionMetric) {
  Graph g = gen::BuildFig1Graph();
  Pattern q = gen::BuildFig1Pattern();
  MatchRelation m = ComputeBoundedSimulation(g, q);
  ResultGraph gr(g, q, m);
  auto rejected = TopKMatchesWith(gr, q, 3, RankingMetric::kTopicFusion);
  EXPECT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsInvalidArgument());
  EXPECT_EQ(ParseRankingMetric("topic-fusion"), RankingMetric::kTopicFusion);
  EXPECT_EQ(RankingMetricName(RankingMetric::kTopicFusion), "topic-fusion");
}

TEST(TopicFusionTest, StreamingTermCountsEqualTokenizedCounts) {
  // Mixed case, punctuation, digits, repeated tokens, and bytes >= 0x80
  // (never alphanumeric, so they split tokens: "caf\xC3\xA9" holds "caf").
  const std::vector<std::string> texts = {
      "Graph DATABASES, graph-databases; GRAPH",
      "C3PO r2d2 2024 r2d2-R2D2",
      "na\xC3\xAFve caf\xC3\xA9 graph\xE2\x80\x94theory",
      "...,,;;  ",
      "",
      "ML/ml/Ml/mL",
      "\xFFgraph\xFF\x80" "42",
      "\xC3\x9C" "ber-Graph 42 a A a"};
  const std::string noise_bytes = "aAqQ7z Z9-_.\x80\xC3\xBF\xFF";
  Rng rng(2024);
  Graph g;
  for (size_t i = 0; i < 60; ++i) {
    const std::string& label = texts[rng.NextBounded(texts.size())];
    const NodeId v = g.AddNode(label.empty() ? "P" : label);
    g.SetAttr(v, "topics", AttrValue(texts[rng.NextBounded(texts.size())]));
    g.SetAttr(v, "bio", AttrValue(texts[rng.NextBounded(texts.size())] + " " +
                                  texts[rng.NextBounded(texts.size())]));
    std::string noise;
    for (int c = 0; c < 24; ++c) noise += noise_bytes[rng.NextBounded(noise_bytes.size())];
    g.SetAttr(v, "noise", AttrValue(noise));
    g.SetAttr(v, "year", AttrValue(int64_t{2024}));  // not a string: never counted
  }
  PatternBuilder b;
  b.Node("").Output();
  Pattern q = b.Build().value();
  MatchRelation m = ComputeBoundedSimulation(g, q);
  ResultGraph gr(g, q, m);
  ASSERT_EQ(gr.NumNodes(), 60u);

  std::vector<std::string> tokens;
  for (const char* term : {"graph databases", "R2D2 2024", "ml", "caf", "theory", "42",
                           "a", "q", "7", "z9", "absent"}) {
    AppendTopicTokens(term, &tokens);
  }
  std::sort(tokens.begin(), tokens.end());
  tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());

  const std::vector<uint32_t> counts = TopicTermCounts(gr, g, tokens);
  ASSERT_EQ(counts.size(), gr.NumNodes() * tokens.size());
  uint32_t repeated = 0;
  for (uint32_t pos = 0; pos < gr.NumNodes(); ++pos) {
    const NodeId v = gr.DataNode(pos);
    std::vector<std::string> node_tokens = TopicTokens(g.NodeLabelName(v));
    for (const auto& [key, value] : g.Attrs(v)) {
      if (value.is_string()) AppendTopicTokens(value.AsString(), &node_tokens);
    }
    std::vector<uint32_t> want(tokens.size(), 0);
    for (const std::string& tok : node_tokens) {
      auto it = std::lower_bound(tokens.begin(), tokens.end(), tok);
      if (it != tokens.end() && *it == tok) ++want[it - tokens.begin()];
    }
    const std::vector<uint32_t> got(counts.begin() + pos * tokens.size(),
                                    counts.begin() + (pos + 1) * tokens.size());
    EXPECT_EQ(got, want) << "node " << v;
    for (uint32_t c : want) repeated += c > 1;
  }
  EXPECT_GT(repeated, 0u);
}

// --- Engine & service telemetry -------------------------------------------

TEST(EngineTopicStatsTest, CountersTrackBuildsHitsAndFallbacks) {
  Graph g = gen::ErdosRenyi(100, 300, 21, gen::TopicExpertiseModel());
  ServiceOptions options;
  options.engine.use_cache = false;
  options.engine.topic_index.build_after_uses = 2;
  ExpFinderService service(&g, options);

  PatternBuilder b;
  b.Node("").Where("topics", CmpOp::kHasToken, AttrValue("machine learning")).Output();
  QueryRequest req;
  req.pattern = b.Build().value();

  // Use 1: deferred -> the text node scans.
  ASSERT_TRUE(service.Query(req).ok());
  EXPECT_EQ(service.stats().topic_index_builds, 0u);
  EXPECT_EQ(service.stats().posting_hits, 0u);
  EXPECT_EQ(service.stats().seed_scan_fallbacks, 1u);
  // Use 2 crosses the threshold: one build, then posting-served seeding.
  ASSERT_TRUE(service.Query(req).ok());
  EXPECT_EQ(service.stats().topic_index_builds, 1u);
  EXPECT_EQ(service.stats().posting_hits, 1u);
  ASSERT_TRUE(service.Query(req).ok());
  EXPECT_EQ(service.stats().topic_index_builds, 1u);  // steady state
  EXPECT_EQ(service.stats().posting_hits, 2u);
  EXPECT_EQ(service.stats().seed_scan_fallbacks, 1u);

  // Non-text queries never touch (or age) the slot.
  PatternBuilder plain;
  plain.Node("").Where("experience", CmpOp::kGe, AttrValue(3)).Output();
  QueryRequest plain_req;
  plain_req.pattern = plain.Build().value();
  const size_t hits_before = service.stats().posting_hits;
  ASSERT_TRUE(service.Query(plain_req).ok());
  EXPECT_EQ(service.stats().posting_hits, hits_before);
}

TEST(EngineTopicStatsTest, MaintainedRegistrationBuildsAndAddNodePatches) {
  const gen::LabelModel model = gen::TopicExpertiseModel();
  Graph g = gen::ErdosRenyi(80, 240, 33, model);
  QueryEngine engine(&g);

  PatternBuilder b;
  auto out = b.Node("").Where("topics", CmpOp::kHasToken, AttrValue("distributed systems"));
  out.Output();
  auto peer = b.Node("");
  b.Edge(out, peer, 2);
  Pattern q = b.Build().value();
  const uint64_t key = QueryCacheKey(q, MatchSemantics::kBoundedSimulation);

  ASSERT_TRUE(engine.RegisterMaintainedQuery(q).ok());
  ASSERT_NE(engine.Publish()->Maintained(key), nullptr);

  // Grow the graph through the engine: the maintained relation of the text
  // query still equals a from-scratch evaluation.
  auto added = engine.AddNode("P", {{"topics", AttrValue("distributed systems")},
                                    {"experience", AttrValue(9)}});
  ASSERT_TRUE(added.ok());
  UpdateBatch batch;
  batch.push_back(GraphUpdate::Insert(*added, 0));
  batch.push_back(GraphUpdate::Insert(1, *added));
  ASSERT_TRUE(engine.ApplyUpdates(batch).ok());
  auto snap = engine.Publish();
  const MatchRelation* maintained = snap->Maintained(key);
  ASSERT_NE(maintained, nullptr);
  EXPECT_EQ(*maintained, ComputeBoundedSimulation(g, q));
}

TEST(ServiceTopicQueryTest, TopicTermsServeIdenticalAnswersIndexOnAndOff) {
  Graph g = gen::ErdosRenyi(120, 360, 51, gen::TopicExpertiseModel());
  ServiceOptions options;
  options.engine.topic_index.build_after_uses = 2;
  options.serving_threads = 2;
  ExpFinderService service(&g, options);

  QueryRequest req;
  PatternBuilder b;
  b.Node("").Output();
  req.pattern = b.Build().value();
  req.topic_terms = {"graph databases"};
  req.top_k = 5;
  req.metric = RankingMetric::kTopicFusion;
  req.use_cache = false;

  auto deferred = service.Query(req);  // use 1: index deferred, scans
  ASSERT_TRUE(deferred.ok()) << deferred.status();
  auto on = service.Query(req);  // use 2: builds, seeds from postings
  ASSERT_TRUE(on.ok()) << on.status();
  options.engine.topic_index.enabled = false;
  ExpFinderService scan_service(&g, options);
  auto off = scan_service.Query(req);
  ASSERT_TRUE(off.ok()) << off.status();

  // Identical relation and identical fused ranking — deferred, indexed, and
  // with the index disabled.
  EXPECT_EQ(on->answer->matches, deferred->answer->matches);
  EXPECT_EQ(on->answer->matches, off->answer->matches);
  ASSERT_EQ(on->ranked.size(), off->ranked.size());
  for (size_t i = 0; i < on->ranked.size(); ++i) {
    EXPECT_EQ(on->ranked[i].node, off->ranked[i].node);
    EXPECT_EQ(on->ranked[i].score, off->ranked[i].score);
  }
  EXPECT_FALSE(on->ranked.empty());

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.topic_index_builds, 1u);
  EXPECT_GE(stats.posting_hits, 1u);
  EXPECT_GE(stats.seed_scan_fallbacks, 1u);  // the deferred request scanned
  const std::string rendered = stats.ToString();
  EXPECT_NE(rendered.find("posting_hits"), std::string::npos);

  // Every match of the compiled pattern really carries the query's tokens.
  Pattern compiled = CompileTopicTerms(req.pattern, req.topic_terms);
  MatchRelation oracle = ComputeBoundedSimulation(g, compiled);
  EXPECT_EQ(on->answer->matches, oracle);
}

TEST(ServiceTopicQueryTest, TopicTermsWithoutOutputNodeAreRejected) {
  // No output node means CompileTopicTerms has nowhere to hang the
  // expertise predicates; serving the unfiltered relation would silently
  // ignore the filter, so the request must fail loudly instead. (Submit's
  // pattern validation catches it.)
  Graph g = gen::ErdosRenyi(30, 90, 7, gen::TopicExpertiseModel());
  ExpFinderService service(&g);
  QueryRequest req;
  PatternNode n;
  n.name = "x";
  ASSERT_TRUE(req.pattern.AddNode(std::move(n)).ok());  // never SetOutput
  req.topic_terms = {"graph databases"};
  auto rejected = service.Query(req);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsInvalidArgument());
  EXPECT_EQ(service.stats().rejected, 1u);
}

}  // namespace
}  // namespace expfinder
