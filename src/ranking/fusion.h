// Ranking fusion for topic queries: combines the structural goodness of a
// match (social impact & friends, metrics.h) with its TF-IDF relevance to
// the query's topic terms, then runs a few rounds of bounded CO-HITS-style
// reinforcement over the result graph — an expert close to other relevant
// experts ranks above an equally-relevant loner, which is exactly the
// paper's "experts are found through their collaborations" reading.
//
// Everything here is computed self-contained over the ResultGraph and the
// data graph's attributes: no dependency on the topic inverted index, so
// fused rankings are bit-identical whether seeding used postings or scans.

#ifndef EXPFINDER_RANKING_FUSION_H_
#define EXPFINDER_RANKING_FUSION_H_

#include <cstddef>
#include <string>
#include <vector>

#include "src/matching/result_graph.h"
#include "src/ranking/metrics.h"
#include "src/ranking/social_impact.h"

namespace expfinder {

/// \brief Fusion knobs. Defaults favour topic relevance but let structure
/// break ties and propagation pull in well-connected experts.
struct TopicFusionOptions {
  /// Weight of topic relevance vs normalized structure goodness in the base
  /// score: base = alpha * topic + (1 - alpha) * structure.
  double alpha = 0.6;
  /// Per-iteration neighborhood mixing: next = (1 - beta) * base +
  /// beta * weighted-neighbor-average. 0 disables propagation.
  double beta = 0.3;
  /// Reinforcement rounds (bounded, so ranking stays O(iterations * edges)).
  int iterations = 3;
  /// The structure half; kTopicFusion itself falls back to kSocialImpact.
  RankingMetric structure_metric = RankingMetric::kSocialImpact;
};

/// Query-token hit counts of every result node, row-major in one flat
/// NumNodes() x query_tokens.size() array: entry (pos, i) counts the
/// occurrences of query_tokens[i] (sorted, unique, normalized) among the
/// topic tokens of the label and string attributes of gr.DataNode(pos) in
/// `g` — the term frequencies of fusion's TF-IDF half.
std::vector<uint32_t> TopicTermCounts(const ResultGraph& gr, const Graph& g,
                                      const std::vector<std::string>& query_tokens);

/// The K best matches of Q's output node under fused topic + structure
/// scoring, best-first. `g` must be the data graph the result graph was
/// built over (its attributes feed the TF-IDF half); `terms` are the
/// query's free-text topic terms (normalized via TopicTokens — callers
/// don't pre-tokenize). Deterministic: ties break toward the smaller node
/// id. RankedMatch::score is the negated fused goodness, preserving the
/// smaller-is-better convention of the other metrics. Empty `terms` ranks
/// by the structure half alone.
Result<std::vector<RankedMatch>> TopKTopicFusion(const ResultGraph& gr,
                                                 const Pattern& q, const Graph& g,
                                                 const std::vector<std::string>& terms,
                                                 size_t k,
                                                 const TopicFusionOptions& opts = {});

}  // namespace expfinder

#endif  // EXPFINDER_RANKING_FUSION_H_
