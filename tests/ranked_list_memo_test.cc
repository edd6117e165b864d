// The ranked-list memo on cached answers. Every ranked list the service
// returns, whether copied from the answer's memo or ranked for the request,
// must equal a fresh TopKMatchesWith / TopKTopicFusion call over that
// response's result graph, compared with == (node ids and exact score
// doubles): across metrics and k, pattern aliases that share one cache
// entry, as_of and replica-routed reads, and concurrent readers of one warm
// answer (run under ThreadSanitizer in CI).

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/generator/generators.h"
#include "src/incremental/update.h"
#include "src/index/topic_index.h"
#include "src/matching/bounded_simulation.h"
#include "src/ranking/fusion.h"
#include "src/ranking/ranked_list_memo.h"
#include "src/ranking/topk.h"
#include "src/service/expfinder_service.h"

namespace expfinder {
namespace {

constexpr RankingMetric kMetrics[] = {
    RankingMetric::kSocialImpact, RankingMetric::kCloseness, RankingMetric::kDegree,
    RankingMetric::kPageRank, RankingMetric::kTopicFusion};

std::vector<RankedMatch> List(std::initializer_list<NodeId> nodes) {
  std::vector<RankedMatch> out;
  double score = 0.0;
  for (NodeId v : nodes) out.push_back(RankedMatch{v, score += 0.5});
  return out;
}

TEST(RankedListMemoTest, FindCoversShorterKAndCompleteLists) {
  RankedListMemo memo;
  const RankedListKey key = MakeRankedListKey(0, RankingMetric::kDegree, {});
  std::vector<RankedMatch> out;
  EXPECT_FALSE(memo.Find(key, 1, &out));

  memo.Store(key, 3, List({7, 3, 9}));
  ASSERT_TRUE(memo.Find(key, 2, &out));
  EXPECT_EQ(out, List({7, 3}));
  ASSERT_TRUE(memo.Find(key, 3, &out));
  EXPECT_EQ(out, List({7, 3, 9}));
  EXPECT_FALSE(memo.Find(key, 4, &out));  // ranked with k = 3: may go on
  EXPECT_EQ(out, List({7, 3, 9}));        // a miss leaves *out alone

  // Five matches ranked with k = 10: the complete order covers any k.
  memo.Store(key, 10, List({7, 3, 9, 1, 4}));
  ASSERT_TRUE(memo.Find(key, 1000, &out));
  EXPECT_EQ(out, List({7, 3, 9, 1, 4}));
  // A list ranked with a smaller k never replaces a larger one.
  memo.Store(key, 4, List({7, 3, 9, 1}));
  ASSERT_TRUE(memo.Find(key, 1000, &out));
  EXPECT_EQ(out.size(), 5u);

  // Other keys miss; a k = 0 list teaches the memo nothing.
  EXPECT_FALSE(memo.Find(MakeRankedListKey(1, RankingMetric::kDegree, {}), 1, &out));
  EXPECT_FALSE(memo.Find(MakeRankedListKey(0, RankingMetric::kPageRank, {}), 1, &out));
  const RankedListKey empty_key = MakeRankedListKey(0, RankingMetric::kCloseness, {});
  memo.Store(empty_key, 0, {});
  EXPECT_FALSE(memo.Find(empty_key, 0, &out));

  // A copy (an answer copied or moved) starts empty.
  RankedListMemo copy(memo);
  EXPECT_FALSE(copy.Find(key, 1, &out));
}

TEST(RankedListMemoTest, KeysNormalizeFusionTermsAndIgnoreThemElsewhere) {
  using M = RankingMetric;
  EXPECT_EQ(MakeRankedListKey(0, M::kTopicFusion, {"Graph  DATABASES"}),
            MakeRankedListKey(0, M::kTopicFusion, {"graph databases", "graph"}));
  EXPECT_EQ(MakeRankedListKey(0, M::kTopicFusion, {"graph databases"}).tokens,
            "databases graph");
  EXPECT_FALSE(MakeRankedListKey(0, M::kTopicFusion, {"graph databases"}) ==
               MakeRankedListKey(0, M::kTopicFusion, {}));
  // Only fusion reads the terms.
  EXPECT_EQ(MakeRankedListKey(2, M::kSocialImpact, {"graph databases"}),
            MakeRankedListKey(2, M::kSocialImpact, {}));
}

/// A topic-labelled random graph: every node lists two expertise topics, so
/// fusion's TF-IDF half has signal.
Graph TopicGraph() { return gen::ErdosRenyi(400, 1600, 17, gen::TopicExpertiseModel()); }

/// An expert (the output node) with a collaborator within two hops.
Pattern ExpertPattern() {
  PatternBuilder b;
  auto expert = b.Node("", "expert");
  expert.Output();
  auto peer = b.Node("", "peer");
  b.Edge(expert, peer, 2);
  return b.Build().value();
}

QueryRequest Ranked(Pattern pattern, RankingMetric metric, size_t k,
                    std::vector<std::string> terms = {}) {
  QueryRequest req;
  req.pattern = std::move(pattern);
  req.metric = metric;
  req.top_k = k;
  req.topic_terms = std::move(terms);
  return req;
}

/// A fresh ranking of `resp`'s result graph for `req`, as the service would
/// rank it without a memo. `g` is the data graph at the response's version.
std::vector<RankedMatch> Oracle(const QueryRequest& req, const QueryResponse& resp,
                                const Graph& g) {
  const Pattern compiled = req.topic_terms.empty()
                               ? req.pattern
                               : CompileTopicTerms(req.pattern, req.topic_terms);
  Result<std::vector<RankedMatch>> ranked =
      req.metric == RankingMetric::kTopicFusion
          ? TopKTopicFusion(resp.answer->result_graph, compiled, g, req.topic_terms,
                            *req.top_k)
          : TopKMatchesWith(resp.answer->result_graph, compiled, *req.top_k, req.metric);
  EXPECT_TRUE(ranked.ok()) << ranked.status();
  return ranked.ok() ? *ranked : std::vector<RankedMatch>{};
}

class ServiceRankedListMemoTest : public ::testing::Test {
 protected:
  void SetUp() override { g_ = TopicGraph(); }

  /// Matches of the expert node under `terms`: the largest list a ranking
  /// can return.
  size_t OutputMatches(const std::vector<std::string>& terms) const {
    return ComputeBoundedSimulation(g_, CompileTopicTerms(ExpertPattern(), terms))
        .MatchesOf(0)
        .size();
  }

  Graph g_;
};

TEST_F(ServiceRankedListMemoTest, EveryMetricAndKMatchesTheOracleTwice) {
  const std::vector<std::string> terms = {"graph databases"};
  const size_t matches = OutputMatches(terms);
  ASSERT_GT(matches, 10u);
  std::vector<QueryRequest> requests;
  for (RankingMetric metric : kMetrics) {
    for (size_t k : {size_t{1}, size_t{3}, size_t{10}, matches + 5}) {
      requests.push_back(Ranked(ExpertPattern(), metric, k, terms));
    }
  }
  ExpFinderService service(&g_);
  std::mt19937 rng(18);
  std::shared_ptr<const QueryAnswer> answer;
  for (int pass = 0; pass < 2; ++pass) {
    std::shuffle(requests.begin(), requests.end(), rng);
    for (const QueryRequest& req : requests) {
      auto resp = service.Query(req);
      ASSERT_TRUE(resp.ok()) << resp.status();
      if (pass == 1) {
        EXPECT_EQ(resp->path, ServingPath::kCache);
      }
      if (answer == nullptr) answer = resp->answer;
      EXPECT_EQ(resp->answer.get(), answer.get());  // one cache entry serves all
      EXPECT_EQ(resp->ranked.size(), std::min(*req.top_k, matches));
      EXPECT_EQ(resp->ranked, Oracle(req, *resp, g_))
          << RankingMetricName(req.metric) << " k=" << *req.top_k << " pass " << pass;
    }
  }
  // Every ranking is memoized, each complete (ranked past the last match).
  for (RankingMetric metric : kMetrics) {
    std::vector<RankedMatch> out;
    EXPECT_TRUE(answer->ranked_lists.Find(MakeRankedListKey(0, metric, terms),
                                          matches + 100, &out))
        << RankingMetricName(metric);
    EXPECT_EQ(out.size(), matches);
  }
}

TEST_F(ServiceRankedListMemoTest, LongerKReplacesTheEntryAndShorterKReadsItsPrefix) {
  ExpFinderService service(&g_);
  const RankedListKey key = MakeRankedListKey(0, RankingMetric::kSocialImpact, {});
  QueryRequest req = Ranked(ExpertPattern(), RankingMetric::kSocialImpact, 3);
  auto three = service.Query(req);
  ASSERT_TRUE(three.ok()) << three.status();
  EXPECT_EQ(three->ranked, Oracle(req, *three, g_));
  std::vector<RankedMatch> memoized;
  EXPECT_FALSE(three->answer->ranked_lists.Find(key, 4, &memoized));

  req.top_k = 20;  // not covered: ranks with k = 20 and replaces the entry
  auto twenty = service.Query(req);
  ASSERT_TRUE(twenty.ok());
  ASSERT_EQ(twenty->ranked.size(), 20u);
  EXPECT_EQ(twenty->ranked, Oracle(req, *twenty, g_));
  ASSERT_TRUE(twenty->answer->ranked_lists.Find(key, 20, &memoized));
  EXPECT_EQ(memoized, twenty->ranked);

  req.top_k = 5;  // covered: the k = 20 list's prefix, which stays in place
  auto five = service.Query(req);
  ASSERT_TRUE(five.ok());
  EXPECT_EQ(five->ranked, Oracle(req, *five, g_));
  EXPECT_EQ(five->ranked,
            std::vector<RankedMatch>(twenty->ranked.begin(), twenty->ranked.begin() + 5));
  ASSERT_TRUE(five->answer->ranked_lists.Find(key, 20, &memoized));
  EXPECT_EQ(memoized, twenty->ranked);
}

TEST_F(ServiceRankedListMemoTest, AliasesShareTheAnswerButRankTheirOwnTerms) {
  // P with free-text terms and its compiled form sent without terms share
  // one cache entry (the compiled pattern is the cache identity). Fusion
  // ranks each by its own terms; the structural metrics rank them alike.
  ExpFinderService service(&g_);
  const std::vector<std::string> terms = {"graph databases"};
  for (RankingMetric metric : {RankingMetric::kTopicFusion, RankingMetric::kDegree}) {
    SCOPED_TRACE(RankingMetricName(metric));
    QueryRequest with_terms = Ranked(ExpertPattern(), metric, 10, terms);
    QueryRequest alias =
        Ranked(CompileTopicTerms(ExpertPattern(), terms), metric, 10);
    QueryRequest respelled = Ranked(ExpertPattern(), metric, 10, {"Graph  DATABASES"});

    auto first = service.Query(with_terms);
    auto second = service.Query(alias);
    auto third = service.Query(respelled);
    ASSERT_TRUE(first.ok() && second.ok() && third.ok());
    EXPECT_EQ(second->path, ServingPath::kCache);
    EXPECT_EQ(third->path, ServingPath::kCache);
    EXPECT_EQ(second->answer.get(), first->answer.get());
    EXPECT_EQ(first->ranked, Oracle(with_terms, *first, g_));
    EXPECT_EQ(second->ranked, Oracle(alias, *second, g_));
    EXPECT_EQ(third->ranked, first->ranked);  // same tokens, same list
    if (metric == RankingMetric::kTopicFusion) {
      EXPECT_NE(second->ranked, first->ranked);  // structure alone vs fused
    } else {
      EXPECT_EQ(second->ranked, first->ranked);
    }
  }
}

TEST_F(ServiceRankedListMemoTest, AsOfReadsServeTheMemoOfTheirVersion) {
  ExpFinderService service(&g_);
  const Graph g0 = g_;  // the data graph at v0, for the fusion oracle
  const uint64_t v0 = service.version();
  const std::vector<std::string> terms = {"graph databases"};
  QueryRequest social = Ranked(ExpertPattern(), RankingMetric::kSocialImpact, 10, terms);
  QueryRequest fusion = Ranked(ExpertPattern(), RankingMetric::kTopicFusion, 10, terms);
  auto warm_social = service.Query(social);
  auto warm_fusion = service.Query(fusion);
  ASSERT_TRUE(warm_social.ok() && warm_fusion.ok());
  EXPECT_EQ(warm_fusion->ranked, Oracle(fusion, *warm_fusion, g0));

  ASSERT_TRUE(service.Mutate(GenerateUpdateStream(g_, 8, 0.5, 5)).ok());
  ASSERT_GT(service.version(), v0);
  for (QueryRequest* req : {&social, &fusion}) req->as_of_version = v0;
  auto old_social = service.Query(social);
  auto old_fusion = service.Query(fusion);
  ASSERT_TRUE(old_social.ok() && old_fusion.ok());
  EXPECT_EQ(old_social->path, ServingPath::kCache);
  EXPECT_EQ(old_social->answer.get(), warm_social->answer.get());
  EXPECT_EQ(old_social->ranked, warm_social->ranked);
  EXPECT_EQ(old_fusion->ranked, warm_fusion->ranked);
  // A longer k on the pinned answer ranks against the v0 snapshot.
  fusion.top_k = 25;
  auto longer = service.Query(fusion);
  ASSERT_TRUE(longer.ok());
  EXPECT_EQ(longer->graph_version, v0);
  EXPECT_EQ(longer->ranked, Oracle(fusion, *longer, g0));
}

TEST_F(ServiceRankedListMemoTest, ReplicaReadsServeTheMemoOfTheirVersion) {
  ServiceOptions opts;
  opts.replication.num_replicas = 1;
  opts.replication.poll_interval_ms = 1.0;
  opts.replication.max_staleness_wait_ms = 10000.0;
  ExpFinderService service(&g_, opts);
  const uint64_t v0 = service.version();
  ASSERT_GT(v0, 0u);
  const std::vector<std::string> terms = {"graph databases"};
  for (RankingMetric metric : {RankingMetric::kTopicFusion, RankingMetric::kCloseness}) {
    SCOPED_TRACE(RankingMetricName(metric));
    // Warm through the primary's retained ring (as_of reads are not routed).
    QueryRequest req = Ranked(ExpertPattern(), metric, 10, terms);
    req.as_of_version = v0;
    auto warm = service.Query(req);
    ASSERT_TRUE(warm.ok()) << warm.status();
    // The same version read through the replica hits the warm answer.
    req.as_of_version.reset();
    req.min_version = v0;
    const size_t routed0 = service.stats().routed_reads;
    auto routed = service.Query(req);
    ASSERT_TRUE(routed.ok()) << routed.status();
    EXPECT_EQ(service.stats().routed_reads, routed0 + 1);
    EXPECT_EQ(routed->graph_version, v0);
    EXPECT_EQ(routed->path, ServingPath::kCache);
    EXPECT_EQ(routed->answer.get(), warm->answer.get());
    EXPECT_EQ(routed->ranked, warm->ranked);
    EXPECT_EQ(routed->ranked, Oracle(req, *routed, g_));
  }
}

TEST_F(ServiceRankedListMemoTest, ZeroKReturnsAnEmptyList) {
  ExpFinderService service(&g_);
  for (RankingMetric metric : kMetrics) {
    QueryRequest req = Ranked(ExpertPattern(), metric, 0, {"graph databases"});
    for (int pass = 0; pass < 2; ++pass) {
      auto resp = service.Query(req);
      ASSERT_TRUE(resp.ok()) << resp.status();
      EXPECT_TRUE(resp->ranked.empty()) << RankingMetricName(metric);
    }
    req.top_k = 3;  // a k = 0 read left nothing behind that shadows k = 3
    auto three = service.Query(req);
    ASSERT_TRUE(three.ok());
    EXPECT_EQ(three->ranked, Oracle(req, *three, g_));
  }
}

TEST_F(ServiceRankedListMemoTest, ConcurrentReadersOfOneWarmAnswerMatchTheOracle) {
  ServiceOptions opts;
  opts.serving_threads = 4;
  ExpFinderService service(&g_, opts);
  const std::vector<std::string> terms = {"graph databases"};
  const size_t ks[] = {1, 4, 10, 16};
  // Warm the answer (no ranking yet), then precompute every oracle list.
  QueryRequest plain;
  plain.pattern = ExpertPattern();
  plain.topic_terms = terms;
  auto warm = service.Query(plain);
  ASSERT_TRUE(warm.ok()) << warm.status();
  std::vector<QueryRequest> requests;
  std::vector<std::vector<RankedMatch>> oracles;
  for (RankingMetric metric : kMetrics) {
    for (size_t k : ks) {
      requests.push_back(Ranked(ExpertPattern(), metric, k, terms));
      oracles.push_back(Oracle(requests.back(), *warm, g_));
    }
  }

  constexpr int kThreads = 8;
  constexpr int kReadsPerThread = 40;
  std::vector<int> mismatches(kThreads, 0), failures(kThreads, 0);
  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      std::mt19937 rng(100 + t);
      std::uniform_int_distribution<size_t> pick(0, requests.size() - 1);
      for (int i = 0; i < kReadsPerThread; ++i) {
        const size_t r = pick(rng);
        auto resp = service.Query(requests[r]);
        if (!resp.ok() || resp->answer.get() != warm->answer.get()) {
          ++failures[t];
        } else if (resp->ranked != oracles[r]) {
          ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& t : readers) t.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t;
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

}  // namespace
}  // namespace expfinder
