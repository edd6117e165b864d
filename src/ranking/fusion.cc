#include "src/ranking/fusion.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/graph/graph.h"
#include "src/util/string_util.h"

namespace expfinder {

namespace {

/// tf-idf relevance of every result node to the query tokens, min-max
/// normalized into [0, 1]. idf uses the *result graph* as the corpus: a
/// token every match carries (often the one that selected them) stops
/// discriminating, and rarer co-occurring tokens take over.
std::vector<double> TopicRelevance(const ResultGraph& gr, const Graph& g,
                                   const std::vector<std::string>& query_tokens) {
  const size_t n = gr.NumNodes();
  std::vector<double> topic(n, 0.0);
  if (n == 0 || query_tokens.empty()) return topic;
  const size_t nt = query_tokens.size();
  const std::vector<uint32_t> tf = TopicTermCounts(gr, g, query_tokens);
  std::vector<uint32_t> df(nt, 0);
  for (size_t cell = 0; cell < tf.size(); ++cell) {
    if (tf[cell] > 0) ++df[cell % nt];
  }
  std::vector<double> idf(nt);
  for (size_t i = 0; i < nt; ++i) {
    idf[i] = std::log(1.0 + static_cast<double>(n) / (1.0 + static_cast<double>(df[i])));
  }
  for (uint32_t pos = 0; pos < n; ++pos) {
    const uint32_t* row = tf.data() + size_t{pos} * nt;
    double score = 0.0;
    for (size_t i = 0; i < nt; ++i) {
      if (row[i] == 0) continue;
      score += (1.0 + std::log(static_cast<double>(row[i]))) * idf[i];
    }
    topic[pos] = score;
  }
  const double max = *std::max_element(topic.begin(), topic.end());
  if (max > 0.0) {
    for (double& s : topic) s /= max;
  }
  return topic;
}

/// Structure goodness in [0, 1] (1 = best): the metric's smaller-is-better
/// scores, min-max inverted over the finite ones. Unreachable/infinite
/// scores pin to 0.
std::vector<double> StructureGoodness(const ResultGraph& gr, RankingMetric metric) {
  const size_t n = gr.NumNodes();
  std::vector<uint32_t> all(n);
  std::iota(all.begin(), all.end(), 0u);
  const std::vector<double> raw = MetricScores(gr, all, metric);
  double lo = 0.0, hi = 0.0;
  bool any = false;
  for (double s : raw) {
    if (!std::isfinite(s)) continue;
    lo = any ? std::min(lo, s) : s;
    hi = any ? std::max(hi, s) : s;
    any = true;
  }
  std::vector<double> good(n, 0.0);
  for (uint32_t pos = 0; pos < n; ++pos) {
    if (!std::isfinite(raw[pos])) continue;
    good[pos] = hi > lo ? (hi - raw[pos]) / (hi - lo) : 1.0;
  }
  return good;
}

}  // namespace

std::vector<uint32_t> TopicTermCounts(const ResultGraph& gr, const Graph& g,
                                      const std::vector<std::string>& query_tokens) {
  const size_t nt = query_tokens.size();
  std::vector<uint32_t> tf(gr.NumNodes() * nt, 0);
  if (nt == 0) return tf;
  for (uint32_t pos = 0; pos < gr.NumNodes(); ++pos) {
    uint32_t* row = tf.data() + size_t{pos} * nt;
    auto hit = [row](size_t i) {
      ++row[i];
      return true;
    };
    const NodeId v = gr.DataNode(pos);
    ForEachTopicTokenHit(g.NodeLabelName(v), query_tokens, hit);
    for (const auto& [key, value] : g.Attrs(v)) {
      if (value.is_string()) ForEachTopicTokenHit(value.AsString(), query_tokens, hit);
    }
  }
  return tf;
}

Result<std::vector<RankedMatch>> TopKTopicFusion(const ResultGraph& gr,
                                                 const Pattern& q, const Graph& g,
                                                 const std::vector<std::string>& terms,
                                                 size_t k,
                                                 const TopicFusionOptions& opts) {
  auto output = q.output_node();
  if (!output) return Status::InvalidArgument("pattern has no output node");
  const size_t n = gr.NumNodes();
  if (n == 0) return std::vector<RankedMatch>{};  // nothing matched, nothing to rank
  std::vector<std::string> query_tokens;
  for (const std::string& t : terms) AppendTopicTokens(t, &query_tokens);
  std::sort(query_tokens.begin(), query_tokens.end());
  query_tokens.erase(std::unique(query_tokens.begin(), query_tokens.end()),
                     query_tokens.end());

  const std::vector<double> topic = TopicRelevance(gr, g, query_tokens);
  RankingMetric structure_metric = opts.structure_metric == RankingMetric::kTopicFusion
                                       ? RankingMetric::kSocialImpact
                                       : opts.structure_metric;
  const std::vector<double> structure = StructureGoodness(gr, structure_metric);

  std::vector<double> base(n);
  for (uint32_t pos = 0; pos < n; ++pos) {
    base[pos] = opts.alpha * topic[pos] + (1.0 - opts.alpha) * structure[pos];
  }

  // Bounded CO-HITS-style reinforcement: each round pulls a node toward the
  // distance-discounted average of its result-graph neighbors (both edge
  // directions — collaboration flows both ways), anchored on the base score
  // so iteration cannot drift away from the evidence.
  std::vector<double> score = base;
  std::vector<double> next(n);
  for (int it = 0; it < opts.iterations && opts.beta > 0.0; ++it) {
    for (uint32_t v = 0; v < n; ++v) {
      double acc = 0.0;
      double wsum = 0.0;
      for (const auto& [u, w] : gr.Out()[v]) {
        const double weight = 1.0 / (1.0 + w);
        acc += weight * score[u];
        wsum += weight;
      }
      for (const auto& [u, w] : gr.In()[v]) {
        const double weight = 1.0 / (1.0 + w);
        acc += weight * score[u];
        wsum += weight;
      }
      const double neighborhood = wsum > 0.0 ? acc / wsum : base[v];
      next[v] = (1.0 - opts.beta) * base[v] + opts.beta * neighborhood;
    }
    score.swap(next);
  }

  // Negate into the smaller-is-better convention and select.
  std::vector<RankedMatch> ranked;
  const std::vector<uint32_t>& matches = gr.MatchesOf(*output);
  ranked.reserve(matches.size());
  for (uint32_t pos : matches) {
    ranked.push_back(RankedMatch{gr.DataNode(pos), -score[pos]});
  }
  std::sort(ranked.begin(), ranked.end(), [](const RankedMatch& a, const RankedMatch& b) {
    if (a.score != b.score) return a.score < b.score;
    return a.node < b.node;
  });
  if (ranked.size() > k) ranked.resize(k);
  return ranked;
}

}  // namespace expfinder
