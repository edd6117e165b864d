#include "src/ranking/topk.h"

#include <queue>

namespace expfinder {

namespace {

/// Bounded-heap selection over the output node's matches, all scored in one
/// MetricScores call.
Result<std::vector<RankedMatch>> SelectTopK(const ResultGraph& gr, const Pattern& q,
                                            size_t k, RankingMetric metric) {
  auto output = q.output_node();
  if (!output) return Status::InvalidArgument("pattern has no output node");
  if (k == 0) return std::vector<RankedMatch>{};
  const std::vector<uint32_t>& matches = gr.MatchesOf(*output);
  const std::vector<double> scores = MetricScores(gr, matches, metric);
  auto worse = [](const RankedMatch& a, const RankedMatch& b) {
    if (a.score != b.score) return a.score < b.score;
    return a.node < b.node;  // larger id = worse on ties
  };
  // Max-heap of the best k seen so far (top = worst of the kept).
  std::priority_queue<RankedMatch, std::vector<RankedMatch>, decltype(worse)> heap(worse);
  for (size_t i = 0; i < matches.size(); ++i) {
    RankedMatch m{gr.DataNode(matches[i]), scores[i]};
    if (heap.size() < k) {
      heap.push(m);
    } else if (worse(m, heap.top())) {
      heap.pop();
      heap.push(m);
    }
  }
  std::vector<RankedMatch> out(heap.size());
  for (size_t i = heap.size(); i-- > 0;) {
    out[i] = heap.top();
    heap.pop();
  }
  return out;
}

}  // namespace

Result<std::vector<RankedMatch>> TopKMatches(const ResultGraph& gr, const Pattern& q,
                                             size_t k) {
  return SelectTopK(gr, q, k, RankingMetric::kSocialImpact);
}

Result<std::vector<RankedMatch>> TopKMatchesWith(const ResultGraph& gr,
                                                 const Pattern& q, size_t k,
                                                 RankingMetric metric) {
  if (metric == RankingMetric::kTopicFusion) {
    return Status::InvalidArgument(
        "topic-fusion needs the query's topic terms and the data graph; rank "
        "through TopKTopicFusion (service: set QueryRequest::topic_terms)");
  }
  return SelectTopK(gr, q, k, metric);
}

}  // namespace expfinder
