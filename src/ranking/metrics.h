// Alternative social-impact metrics (paper §II: "Note that other metrics
// can be readily supported by ExpFinder."). All are normalized to
// smaller-is-better scores so the top-K machinery is metric-agnostic.

#ifndef EXPFINDER_RANKING_METRICS_H_
#define EXPFINDER_RANKING_METRICS_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "src/matching/result_graph.h"

namespace expfinder {

/// Selectable ranking metric.
enum class RankingMetric {
  /// The paper's f(u_o, v): average result-graph distance to/from peers.
  kSocialImpact,
  /// Negated closeness centrality (reciprocal average forward distance).
  kCloseness,
  /// Negated total degree in the result graph.
  kDegree,
  /// Negated PageRank over the result graph.
  kPageRank,
  /// Topic relevance fused with structure (ranking/fusion.h). Needs the
  /// query's topic terms and the data graph, so TopKMatchesWith rejects it —
  /// rank through TopKTopicFusion (the service routes
  /// QueryRequest::topic_terms there). MetricScores alone degenerates to the
  /// structure half (kSocialImpact).
  kTopicFusion,
};

std::string_view RankingMetricName(RankingMetric metric);
std::optional<RankingMetric> ParseRankingMetric(std::string_view name);

/// Smaller-is-better scores of the matches at result positions `positions`
/// (out[i] scores positions[i]); the one scorer behind every ranking entry
/// point. Social impact and closeness share a bit-parallel multi-source BFS
/// (64 sources per pass, one lane bit each) over the result graph's integer
/// path-length weights, with exact per-lane integer distance sums, so every
/// score is bit-identical to summing per-source Dijkstra distances in
/// doubles while the sums stay below 2^53. PageRank runs its power
/// iteration once per call. Scratch, allocated per call, is O(|Vr|) words
/// plus the pending arrivals and a ring of bucket headers sized by the
/// largest weight, never O(max weight x |Vr|).
std::vector<double> MetricScores(const ResultGraph& gr,
                                 std::span<const uint32_t> positions,
                                 RankingMetric metric);

/// Single-position form of MetricScores, for one-off lookups.
double MetricScore(const ResultGraph& gr, uint32_t pos, RankingMetric metric);

/// PageRank over the result graph (damping 0.85, 50 iterations); exposed for
/// tests. Scores sum to 1 over result nodes (dangling mass redistributed).
std::vector<double> ResultGraphPageRank(const ResultGraph& gr, double damping = 0.85,
                                        int iterations = 50);

}  // namespace expfinder

#endif  // EXPFINDER_RANKING_METRICS_H_
