#include "src/ranking/social_impact.h"

#include <limits>

#include "src/ranking/metrics.h"
#include "src/ranking/topk.h"

namespace expfinder {

double SocialImpactScore(const ResultGraph& gr, uint32_t pos) {
  return MetricScore(gr, pos, RankingMetric::kSocialImpact);
}

Result<std::vector<RankedMatch>> RankAllMatches(const ResultGraph& gr,
                                                const Pattern& q) {
  return TopKMatches(gr, q, std::numeric_limits<size_t>::max());
}

}  // namespace expfinder
