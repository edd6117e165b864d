// Social-impact ranking of output-node matches (paper §II, "Results
// Ranking", Example 2).
//
// For the output node u_o and a match v in the result graph Gr:
//
//   f(u_o, v) = ( sum_{u in Vr} dist(u, v) + sum_{u' in Vr} dist(v, u') )
//               / |V'_r|
//
// where dist is the weighted shortest-path distance in Gr (weights = data
// path lengths) and V'_r is the set of nodes that can reach v or be reached
// from v. Smaller f = closer collaboration = stronger social impact; the
// top-K experts are the K matches with minimum f.

#ifndef EXPFINDER_RANKING_SOCIAL_IMPACT_H_
#define EXPFINDER_RANKING_SOCIAL_IMPACT_H_

#include <vector>

#include "src/matching/result_graph.h"
#include "src/query/pattern.h"
#include "src/util/result.h"

namespace expfinder {

/// \brief A match of the output node with its ranking score (smaller =
/// better for the social-impact metric).
struct RankedMatch {
  NodeId node = kInvalidNode;
  double score = 0.0;

  bool operator==(const RankedMatch& other) const {
    return node == other.node && score == other.score;
  }
};

/// f(u_o, v) for the match at result position `pos`. Matches with no
/// reachable/reaching peers (|V'_r| = 0) rank last: +infinity. Scoring many
/// positions goes through MetricScores (metrics.h), 64 sources per pass.
double SocialImpactScore(const ResultGraph& gr, uint32_t pos);

/// Scores of every match of the output node, sorted ascending (ties by node
/// id for determinism). Fails with InvalidArgument when the pattern has no
/// output node.
Result<std::vector<RankedMatch>> RankAllMatches(const ResultGraph& gr,
                                                const Pattern& q);

}  // namespace expfinder

#endif  // EXPFINDER_RANKING_SOCIAL_IMPACT_H_
