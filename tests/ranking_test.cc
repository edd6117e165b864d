#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "src/generator/generators.h"
#include "src/graph/shortest_paths.h"
#include "src/matching/bounded_simulation.h"
#include "src/ranking/fusion.h"
#include "src/ranking/metrics.h"
#include "src/ranking/social_impact.h"
#include "src/ranking/topk.h"
#include "src/util/random.h"
#include "src/util/string_util.h"

namespace expfinder {
namespace {

// Helper: result graph of the Fig.1 query.
struct Fig1Setup {
  Graph g = gen::BuildFig1Graph();
  Pattern q = gen::BuildFig1Pattern();
  MatchRelation m = ComputeBoundedSimulation(g, q);
  ResultGraph gr{g, q, m};
};

TEST(SocialImpactTest, PaperExample2Arithmetic) {
  Fig1Setup s;
  EXPECT_DOUBLE_EQ(SocialImpactScore(s.gr, *s.gr.PositionOf(gen::Fig1::kBob)),
                   9.0 / 5.0);
  EXPECT_DOUBLE_EQ(SocialImpactScore(s.gr, *s.gr.PositionOf(gen::Fig1::kWalt)),
                   7.0 / 3.0);
}

TEST(SocialImpactTest, AncestorsCountToo) {
  // Eva is everyone's sink: her ancestors contribute dist(u, v).
  Fig1Setup s;
  double eva = SocialImpactScore(s.gr, *s.gr.PositionOf(gen::Fig1::kEva));
  // Ancestors of Eva in Gr: Dan(1), Mat(2), Pat(1), Jean(1), Bob(2), Walt(3).
  EXPECT_DOUBLE_EQ(eva, (1 + 2 + 1 + 1 + 2 + 3) / 6.0);
}

TEST(SocialImpactTest, IsolatedMatchRanksLast) {
  // A pattern with a single output node and no edges: every match is
  // isolated in Gr, so scores are infinite but ranking still works.
  Graph g = gen::BuildFig1Graph();
  PatternBuilder b;
  b.Node("SA", "sa").Output();
  Pattern q = b.Build().value();
  MatchRelation m = ComputeBoundedSimulation(g, q);
  ResultGraph gr(g, q, m);
  auto ranked = RankAllMatches(gr, q);
  ASSERT_TRUE(ranked.ok());
  ASSERT_EQ(ranked->size(), 2u);
  EXPECT_TRUE(std::isinf((*ranked)[0].score));
  // Ties break by node id.
  EXPECT_EQ((*ranked)[0].node, gen::Fig1::kBob);
  EXPECT_EQ((*ranked)[1].node, gen::Fig1::kWalt);
}

TEST(RankAllMatchesTest, SortedAscending) {
  Fig1Setup s;
  auto ranked = RankAllMatches(s.gr, s.q);
  ASSERT_TRUE(ranked.ok());
  for (size_t i = 1; i < ranked->size(); ++i) {
    EXPECT_LE((*ranked)[i - 1].score, (*ranked)[i].score);
  }
}

TEST(RankAllMatchesTest, RequiresOutputNode) {
  Fig1Setup s;
  Pattern no_output;
  ASSERT_TRUE(no_output.AddNode({"sa", "SA", {}}).ok());
  ResultGraph gr(s.g, no_output, MatchRelation(1));
  EXPECT_TRUE(RankAllMatches(gr, no_output).status().IsInvalidArgument());
}

TEST(TopKTest, AgreesWithFullRankingPrefix) {
  gen::CollaborationConfig cfg;
  cfg.num_people = 300;
  cfg.num_teams = 60;
  cfg.seed = 77;
  Graph g = gen::CollaborationNetwork(cfg);
  Pattern q = gen::TeamQuery(0);
  MatchRelation m = ComputeBoundedSimulation(g, q);
  if (m.IsEmpty()) GTEST_SKIP() << "instance without matches";
  ResultGraph gr(g, q, m);
  auto all = RankAllMatches(gr, q);
  ASSERT_TRUE(all.ok());
  for (size_t k : {size_t{1}, size_t{3}, size_t{10}, all->size() + 5}) {
    auto top = TopKMatches(gr, q, k);
    ASSERT_TRUE(top.ok());
    ASSERT_EQ(top->size(), std::min(k, all->size()));
    for (size_t i = 0; i < top->size(); ++i) {
      EXPECT_EQ((*top)[i].node, (*all)[i].node) << "k=" << k << " i=" << i;
      EXPECT_DOUBLE_EQ((*top)[i].score, (*all)[i].score);
    }
  }
}

TEST(TopKTest, KZeroReturnsNothing) {
  Fig1Setup s;
  auto top = TopKMatches(s.gr, s.q, 0);
  ASSERT_TRUE(top.ok());
  EXPECT_TRUE(top->empty());
}

TEST(MetricsTest, NamesRoundTrip) {
  for (RankingMetric m :
       {RankingMetric::kSocialImpact, RankingMetric::kCloseness,
        RankingMetric::kDegree, RankingMetric::kPageRank}) {
    auto parsed = ParseRankingMetric(RankingMetricName(m));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, m);
  }
  EXPECT_FALSE(ParseRankingMetric("bogus").has_value());
}

TEST(MetricsTest, PageRankSumsToOne) {
  Fig1Setup s;
  auto pr = ResultGraphPageRank(s.gr);
  double sum = 0;
  for (double v : pr) {
    EXPECT_GT(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(MetricsTest, PageRankFavorsTheSink) {
  // Eva receives edges from everyone; she must hold the highest PageRank.
  Fig1Setup s;
  auto pr = ResultGraphPageRank(s.gr);
  uint32_t eva = *s.gr.PositionOf(gen::Fig1::kEva);
  for (uint32_t v = 0; v < s.gr.NumNodes(); ++v) {
    if (v != eva) {
      EXPECT_GT(pr[eva], pr[v]) << v;
    }
  }
}

TEST(MetricsTest, DegreeMetricPrefersBob) {
  Fig1Setup s;
  double bob = MetricScore(s.gr, *s.gr.PositionOf(gen::Fig1::kBob),
                           RankingMetric::kDegree);
  double walt = MetricScore(s.gr, *s.gr.PositionOf(gen::Fig1::kWalt),
                            RankingMetric::kDegree);
  EXPECT_LT(bob, walt);  // smaller (more negative) = better
}

TEST(MetricsTest, ClosenessPrefersBobOverWalt) {
  Fig1Setup s;
  double bob = MetricScore(s.gr, *s.gr.PositionOf(gen::Fig1::kBob),
                           RankingMetric::kCloseness);
  double walt = MetricScore(s.gr, *s.gr.PositionOf(gen::Fig1::kWalt),
                            RankingMetric::kCloseness);
  EXPECT_LT(bob, walt);
}

TEST(MetricsTest, TopKWithEveryMetricReturnsBob) {
  Fig1Setup s;
  for (RankingMetric metric :
       {RankingMetric::kSocialImpact, RankingMetric::kCloseness,
        RankingMetric::kDegree, RankingMetric::kPageRank}) {
    auto top = TopKMatchesWith(s.gr, s.q, 1, metric);
    ASSERT_TRUE(top.ok()) << RankingMetricName(metric);
    ASSERT_EQ(top->size(), 1u);
    EXPECT_EQ((*top)[0].node, gen::Fig1::kBob) << RankingMetricName(metric);
  }
}


// --- Batched scorer vs the per-position Dijkstra oracle --------------------
//
// The oracle scores one position at a time with two heap Dijkstras, summing
// distances in doubles. The batched scorer must reproduce it bit for bit,
// and every ranked list built on it must come out identical.

double OracleSocialImpact(const ResultGraph& gr, uint32_t pos) {
  std::vector<double> fwd = DijkstraFrom(gr.Out(), pos);
  std::vector<double> bwd = DijkstraFrom(gr.In(), pos);
  double sum = 0.0;
  size_t peers = 0;
  for (uint32_t i = 0; i < gr.NumNodes(); ++i) {
    if (i == pos) continue;
    bool connected = false;
    if (std::isfinite(fwd[i])) {
      sum += fwd[i];
      connected = true;
    }
    if (std::isfinite(bwd[i])) {
      sum += bwd[i];
      connected = true;
    }
    if (connected) ++peers;
  }
  if (peers == 0) return InfiniteDistance();
  return sum / static_cast<double>(peers);
}

double OracleCloseness(const ResultGraph& gr, uint32_t pos) {
  std::vector<double> fwd = DijkstraFrom(gr.Out(), pos);
  double sum = 0.0;
  size_t reached = 0;
  for (uint32_t i = 0; i < gr.NumNodes(); ++i) {
    if (i != pos && std::isfinite(fwd[i])) {
      sum += fwd[i];
      ++reached;
    }
  }
  if (reached == 0) return InfiniteDistance();
  return -(static_cast<double>(reached) / sum);
}

std::vector<double> OracleScores(const ResultGraph& gr,
                                 const std::vector<uint32_t>& positions,
                                 RankingMetric metric) {
  const std::vector<double> pr = ResultGraphPageRank(gr);
  std::vector<double> out;
  for (uint32_t pos : positions) {
    switch (metric) {
      case RankingMetric::kCloseness:
        out.push_back(OracleCloseness(gr, pos));
        break;
      case RankingMetric::kDegree:
        out.push_back(-static_cast<double>(gr.Out()[pos].size() + gr.In()[pos].size()));
        break;
      case RankingMetric::kPageRank:
        out.push_back(-pr[pos]);
        break;
      case RankingMetric::kSocialImpact:
      case RankingMetric::kTopicFusion:
        out.push_back(OracleSocialImpact(gr, pos));
        break;
    }
  }
  return out;
}

bool BestFirst(const RankedMatch& a, const RankedMatch& b) {
  if (a.score != b.score) return a.score < b.score;
  return a.node < b.node;
}

std::vector<RankedMatch> OracleTopK(const ResultGraph& gr, const Pattern& q, size_t k,
                                    RankingMetric metric) {
  const std::vector<uint32_t>& matches = gr.MatchesOf(*q.output_node());
  const std::vector<double> scores = OracleScores(gr, matches, metric);
  std::vector<RankedMatch> ranked;
  for (size_t i = 0; i < matches.size(); ++i) {
    ranked.push_back({gr.DataNode(matches[i]), scores[i]});
  }
  std::sort(ranked.begin(), ranked.end(), BestFirst);
  if (ranked.size() > k) ranked.resize(k);
  return ranked;
}

// Topic fusion from oracle ingredients: per-position Dijkstra structure
// scores and a tokenizing TF-IDF pass.
std::vector<RankedMatch> OracleTopicFusion(const ResultGraph& gr, const Pattern& q,
                                           const Graph& g,
                                           const std::vector<std::string>& terms,
                                           size_t k, const TopicFusionOptions& opts) {
  const size_t n = gr.NumNodes();
  if (n == 0) return {};
  std::vector<std::string> tokens;
  for (const std::string& t : terms) AppendTopicTokens(t, &tokens);
  std::sort(tokens.begin(), tokens.end());
  tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
  const size_t nt = tokens.size();

  std::vector<double> topic(n, 0.0);
  if (nt > 0) {
    std::vector<std::vector<uint32_t>> tf(n, std::vector<uint32_t>(nt, 0));
    std::vector<uint32_t> df(nt, 0);
    for (uint32_t pos = 0; pos < n; ++pos) {
      const NodeId v = gr.DataNode(pos);
      std::vector<std::string> node_tokens = TopicTokens(g.NodeLabelName(v));
      for (const auto& [key, value] : g.Attrs(v)) {
        if (value.is_string()) AppendTopicTokens(value.AsString(), &node_tokens);
      }
      for (const std::string& tok : node_tokens) {
        auto it = std::lower_bound(tokens.begin(), tokens.end(), tok);
        if (it != tokens.end() && *it == tok) ++tf[pos][it - tokens.begin()];
      }
      for (size_t i = 0; i < nt; ++i) df[i] += tf[pos][i] > 0;
    }
    for (uint32_t pos = 0; pos < n; ++pos) {
      for (size_t i = 0; i < nt; ++i) {
        if (tf[pos][i] == 0) continue;
        const double idf = std::log(1.0 + static_cast<double>(n) /
                                              (1.0 + static_cast<double>(df[i])));
        topic[pos] += (1.0 + std::log(static_cast<double>(tf[pos][i]))) * idf;
      }
    }
    const double max = *std::max_element(topic.begin(), topic.end());
    if (max > 0.0) {
      for (double& t : topic) t /= max;
    }
  }

  std::vector<uint32_t> all(n);
  for (uint32_t pos = 0; pos < n; ++pos) all[pos] = pos;
  const std::vector<double> raw = OracleScores(gr, all, opts.structure_metric);
  double lo = 0.0, hi = 0.0;
  bool any = false;
  for (double r : raw) {
    if (!std::isfinite(r)) continue;
    lo = any ? std::min(lo, r) : r;
    hi = any ? std::max(hi, r) : r;
    any = true;
  }
  std::vector<double> base(n);
  for (uint32_t pos = 0; pos < n; ++pos) {
    double good = 0.0;
    if (std::isfinite(raw[pos])) good = hi > lo ? (hi - raw[pos]) / (hi - lo) : 1.0;
    base[pos] = opts.alpha * topic[pos] + (1.0 - opts.alpha) * good;
  }
  std::vector<double> score = base, next(n);
  for (int it = 0; it < opts.iterations && opts.beta > 0.0; ++it) {
    for (uint32_t v = 0; v < n; ++v) {
      double acc = 0.0, wsum = 0.0;
      for (const auto& [u, w] : gr.Out()[v]) {
        acc += 1.0 / (1.0 + w) * score[u];
        wsum += 1.0 / (1.0 + w);
      }
      for (const auto& [u, w] : gr.In()[v]) {
        acc += 1.0 / (1.0 + w) * score[u];
        wsum += 1.0 / (1.0 + w);
      }
      const double neighborhood = wsum > 0.0 ? acc / wsum : base[v];
      next[v] = (1.0 - opts.beta) * base[v] + opts.beta * neighborhood;
    }
    score.swap(next);
  }
  std::vector<RankedMatch> ranked;
  for (uint32_t pos : gr.MatchesOf(*q.output_node())) {
    ranked.push_back({gr.DataNode(pos), -score[pos]});
  }
  std::sort(ranked.begin(), ranked.end(), BestFirst);
  if (ranked.size() > k) ranked.resize(k);
  return ranked;
}

// A sparse labelled core (cycles, self-loops, mixed-case topic attributes)
// plus unlabelled chains of 4-12 hops, so unbounded pattern edges map to
// result edges of weight > 3.
Graph RandomRankingGraph(Rng& rng, size_t core) {
  static const char* const kLabels[] = {"A", "B", "C"};
  static const char* const kTopics[] = {
      "Graph databases", "graph THEORY", "query-optimization", "ML; ml",
      "compilers", "c3po & R2D2", "Datenbank\xC3\xBC" "bersicht", "graph graph"};
  Graph g;
  for (size_t i = 0; i < core; ++i) {
    const NodeId v = g.AddNode(kLabels[rng.NextBounded(3)]);
    g.SetAttr(v, "topics", AttrValue(std::string(kTopics[rng.NextBounded(8)]) + ", " +
                                     kTopics[rng.NextBounded(8)]));
  }
  for (size_t e = 0; e < core * 2; ++e) {
    (void)g.AddEdge(static_cast<NodeId>(rng.NextBounded(core)),
                    static_cast<NodeId>(rng.NextBounded(core)));
  }
  for (size_t i = 0; i < core / 16; ++i) {
    const NodeId v = static_cast<NodeId>(rng.NextBounded(core));
    (void)g.AddEdge(v, v);
  }
  for (size_t c = 0; c < core / 8; ++c) {
    NodeId prev = static_cast<NodeId>(rng.NextBounded(core));
    const NodeId end = static_cast<NodeId>(rng.NextBounded(core));
    const int64_t hops = rng.NextInt(4, 12);
    for (int64_t h = 1; h < hops; ++h) {
      const NodeId x = g.AddNode("X");
      (void)g.AddEdge(prev, x);
      prev = x;
    }
    (void)g.AddEdge(prev, end);
  }
  return g;
}

// Patterns the sweep rotates through: unbounded edges in a cycle, an
// unbounded self-loop, an edgeless wildcard output whose matches outside
// the A -> B edges stay isolated in Gr (+inf scores), and a sparser bounded
// 2-cycle.
Pattern RankingPattern(int shape) {
  PatternBuilder b;
  if (shape == 0) {
    auto a = b.Node("A").Output();
    auto bb = b.Node("B");
    auto c = b.Node("C");
    b.Edge(a, bb, kUnboundedEdge).Edge(bb, c, 2).Edge(c, a, 3);
  } else if (shape == 1) {
    auto a = b.Node("A").Output();
    b.Edge(a, a, kUnboundedEdge);
  } else if (shape == 2) {
    auto a = b.Node("A");
    auto bb = b.Node("B");
    b.Edge(a, bb, 1);
    b.Node("").Output();
  } else {
    auto a = b.Node("A");
    auto bb = b.Node("B").Output();
    b.Edge(a, bb, 3).Edge(bb, a, 4);
  }
  return b.Build().value();
}

constexpr RankingMetric kEveryMetric[] = {
    RankingMetric::kSocialImpact, RankingMetric::kCloseness, RankingMetric::kDegree,
    RankingMetric::kPageRank, RankingMetric::kTopicFusion};

void ExpectBitIdentical(const ResultGraph& gr, const std::vector<uint32_t>& positions,
                        RankingMetric metric, const std::string& where) {
  const std::vector<double> got = MetricScores(gr, positions, metric);
  ASSERT_EQ(got.size(), positions.size()) << where;
  const std::vector<double> want = OracleScores(gr, positions, metric);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::memcmp(&got[i], &want[i], sizeof(double)), 0)
        << where << " position " << positions[i] << ": " << got[i] << " vs oracle "
        << want[i];
  }
}

TEST(MetricScoresTest, MatchesDijkstraOracleBitForBit) {
  size_t isolated = 0, self_loops = 0, wide = 0;
  double max_weight = 0.0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed * 7919);
    const Graph g = RandomRankingGraph(rng, 90 + 20 * seed);
    const Pattern q = RankingPattern(static_cast<int>(seed % 4));
    const MatchRelation m = ComputeBoundedSimulation(g, q);
    const ResultGraph gr(g, q, m);
    const size_t n = gr.NumNodes();
    for (uint32_t v = 0; v < n; ++v) {
      for (const auto& [u, w] : gr.Out()[v]) {
        self_loops += u == v;
        max_weight = std::max(max_weight, w);
      }
    }
    if (n >= 130) ++wide;
    std::vector<uint32_t> all(n);
    for (uint32_t v = 0; v < n; ++v) all[v] = v;
    for (RankingMetric metric : kEveryMetric) {
      const std::string where = "seed " + std::to_string(seed) + " metric " +
                                std::string(RankingMetricName(metric));
      ExpectBitIdentical(gr, all, metric, where + " all positions");
      if (n == 0) continue;
      // 1, 63, 64, 65 and 130 positions straddle the 64-lane passes; drawn
      // with repetition, so a source may occupy several lanes of one pass.
      for (size_t count : {1, 63, 64, 65, 130}) {
        std::vector<uint32_t> positions;
        for (size_t i = 0; i < count; ++i) {
          positions.push_back(static_cast<uint32_t>(rng.NextBounded(n)));
        }
        ExpectBitIdentical(gr, positions, metric,
                           where + " " + std::to_string(count) + " positions");
      }
    }
    for (double score : MetricScores(gr, all, RankingMetric::kSocialImpact)) {
      isolated += std::isinf(score);
    }
  }
  // The sweep must actually exercise what it claims to.
  EXPECT_GT(isolated, 0u);
  EXPECT_GT(self_loops, 0u);
  EXPECT_GT(wide, 0u);
  EXPECT_GT(max_weight, 3.0);
}

TEST(MetricScoresTest, EmptyResultGraphAndEmptyPositions) {
  Graph g = gen::BuildFig1Graph();
  PatternBuilder b;
  b.Node("nobody").Output();
  Pattern q = b.Build().value();
  MatchRelation m = ComputeBoundedSimulation(g, q);
  ResultGraph gr(g, q, m);
  ASSERT_EQ(gr.NumNodes(), 0u);
  for (RankingMetric metric : kEveryMetric) {
    EXPECT_TRUE(MetricScores(gr, {}, metric).empty());
    if (metric == RankingMetric::kTopicFusion) continue;
    auto top = TopKMatchesWith(gr, q, 5, metric);
    ASSERT_TRUE(top.ok());
    EXPECT_TRUE(top->empty());
  }
  auto fused = TopKTopicFusion(gr, q, g, {"graph"}, 5);
  ASSERT_TRUE(fused.ok());
  EXPECT_TRUE(fused->empty());
}

TEST(MetricScoresTest, RankedListsMatchTheOracle) {
  const std::vector<std::string> terms = {"graph databases", "ML", "R2D2"};
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed * 104729);
    const Graph g = RandomRankingGraph(rng, 120);
    const Pattern q = RankingPattern(static_cast<int>(seed % 4));
    const MatchRelation m = ComputeBoundedSimulation(g, q);
    const ResultGraph gr(g, q, m);
    const size_t all = gr.MatchesOf(*q.output_node()).size();
    for (size_t k : {size_t{0}, size_t{1}, size_t{5}, all}) {
      const std::string where = "seed " + std::to_string(seed) + " k " + std::to_string(k);
      auto top = TopKMatches(gr, q, k);
      ASSERT_TRUE(top.ok());
      EXPECT_EQ(*top, OracleTopK(gr, q, k, RankingMetric::kSocialImpact)) << where;
      for (RankingMetric metric : kEveryMetric) {
        const std::string name(RankingMetricName(metric));
        if (metric != RankingMetric::kTopicFusion) {
          auto with = TopKMatchesWith(gr, q, k, metric);
          ASSERT_TRUE(with.ok()) << where << " " << name;
          EXPECT_EQ(*with, OracleTopK(gr, q, k, metric)) << where << " " << name;
        }
        TopicFusionOptions opts;
        opts.structure_metric = metric;
        auto fused = TopKTopicFusion(gr, q, g, terms, k, opts);
        ASSERT_TRUE(fused.ok()) << where << " fusion over " << name;
        EXPECT_EQ(*fused, OracleTopicFusion(gr, q, g, terms, k, opts))
            << where << " fusion over " << name;
      }
    }
  }
}

}  // namespace
}  // namespace expfinder
