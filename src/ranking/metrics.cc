#include "src/ranking/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <queue>

#include "src/util/logging.h"

namespace expfinder {

namespace {

/// Sources per multi-source pass: one bit of a uint64_t lane mask each.
constexpr size_t kLanes = 64;

/// 64 unsigned counters held bit-sliced: plane i holds bit i of every lane's
/// count, so adding 2^bit to all lanes of a mask is a short ripple of word
/// operations rather than a loop over the mask's set bits.
class SlicedCounters {
 public:
  void Add(uint64_t lanes, int bit) {
    for (int i = bit; lanes != 0 && i < 64; ++i) {
      const uint64_t carry = planes_[i] & lanes;
      planes_[i] ^= lanes;
      lanes = carry;
      top_ = std::max(top_, i + 1);
    }
  }

  uint64_t Lane(size_t lane) const {
    uint64_t value = 0;
    for (int i = 0; i < top_; ++i) value |= ((planes_[i] >> lane) & 1) << i;
    return value;
  }

 private:
  uint64_t planes_[64] = {};
  int top_ = 0;
};

/// Lanes relayed to a node, due at the distance of the ring slot holding it.
struct Arrival {
  uint32_t node;
  uint64_t lanes;
};

/// Distance classes (distance mod 4) that remember their own latest arrival
/// per node: weights up to 3 get one bucket entry per node and distance.
constexpr size_t kLastClasses = 4;

/// Per-call scratch shared by every pass: O(|Vr|) words, the pending
/// arrivals, and one bucket header per distance up to the largest weight —
/// never a node array per distance, however long unbounded edges get.
struct BfsScratch {
  BfsScratch(size_t n, uint32_t max_weight)
      : ring(std::bit_ceil(size_t{max_weight} + 1)),
        classes(std::min(kLastClasses, ring.size())),
        fresh(n, 0),
        last(n * classes, 0) {}

  // Arrival buckets by distance modulo the ring size. Every pending distance
  // lies in (d, d + max weight], so no two of them share a slot.
  std::vector<std::vector<Arrival>> ring;
  size_t classes;                  // power of two, <= ring.size()
  std::vector<uint64_t> fresh;     // lanes that first reached a node at `d`
  std::vector<uint32_t> frontier;  // nodes with nonzero fresh lanes
  // Bucket index of each node's latest arrival per distance class. A relay
  // to a node already due at the same distance ORs into that arrival, so a
  // bucket holds about one entry per node, not one per edge. A stale index
  // is harmless: a bucket only ever holds arrivals due at one distance, so
  // an entry for the same node there is the pending arrival.
  std::vector<uint32_t> last;
  // Pending distances, each pushed once when its bucket fills: long weights
  // jump straight to the next due bucket instead of stepping through empty
  // distances.
  std::priority_queue<uint64_t, std::vector<uint64_t>, std::greater<>> due;
};

/// The lanes that reached each node in one pass, and the nodes reached at
/// all, so clearing and counting cost O(reached), not O(|Vr|), per pass.
struct Reach {
  explicit Reach(size_t n) : seen(n, 0) {}

  void Clear() {
    for (uint32_t v : visited) seen[v] = 0;
    visited.clear();
  }
  void Mark(uint32_t v, uint64_t lanes) {
    if (seen[v] == 0) visited.push_back(v);
    seen[v] |= lanes;
  }

  std::vector<uint64_t> seen;
  std::vector<uint32_t> visited;
};

/// Bit-parallel multi-source BFS (Then et al., VLDB 2015) over positive
/// integer weights: lane l of every mask stands for sources[l]. Each distance
/// is settled once for all lanes, a frontier node relaying its fresh lanes
/// along each edge to the bucket due at d + w. Adds each lane's sum of
/// distances to the nodes it reaches into `sums`, and leaves in `reach` the
/// lanes that reached each node (a source reaches itself at distance 0).
void MultiSourcePass(const WeightedAdjacency& adj, std::span<const uint32_t> sources,
                     BfsScratch* s, Reach* reach, SlicedCounters* sums) {
  reach->Clear();
  for (size_t lane = 0; lane < sources.size(); ++lane) {
    const uint32_t src = sources[lane];
    if (s->fresh[src] == 0) s->frontier.push_back(src);
    s->fresh[src] |= uint64_t{1} << lane;
    reach->Mark(src, uint64_t{1} << lane);
  }
  const std::vector<uint64_t>& seen = reach->seen;
  const size_t slot_mask = s->ring.size() - 1;
  uint64_t d = 0;
  while (true) {
    for (uint32_t u : s->frontier) {
      const uint64_t lanes = s->fresh[u];
      s->fresh[u] = 0;
      for (const auto& [to, w] : adj[u]) {
        const uint64_t relay = lanes & ~seen[to];
        if (relay == 0) continue;
        const uint64_t at = d + static_cast<uint64_t>(w);
        std::vector<Arrival>& bucket = s->ring[at & slot_mask];
        uint32_t& last = s->last[to * s->classes + (at & (s->classes - 1))];
        if (last < bucket.size() && bucket[last].node == to) {
          bucket[last].lanes |= relay;
          continue;
        }
        if (bucket.empty()) s->due.push(at);
        last = static_cast<uint32_t>(bucket.size());
        bucket.push_back({to, relay});
      }
    }
    s->frontier.clear();
    if (s->due.empty()) return;
    d = s->due.top();
    s->due.pop();
    std::vector<Arrival>& bucket = s->ring[d & slot_mask];
    for (const Arrival& a : bucket) {
      const uint64_t reached = a.lanes & ~seen[a.node];
      if (reached == 0) continue;
      reach->Mark(a.node, reached);
      if (s->fresh[a.node] == 0) s->frontier.push_back(a.node);
      s->fresh[a.node] |= reached;
    }
    bucket.clear();
    for (uint32_t u : s->frontier) {
      for (uint64_t bits = d; bits != 0; bits &= bits - 1) {
        sums->Add(s->fresh[u], std::countr_zero(bits));
      }
    }
  }
}

/// Social impact (both directions) or closeness (forward only) of every
/// position, 64 sources per pass. Distances are integers and each lane's sum
/// is kept exactly in a uint64_t, so converting it once reproduces the
/// per-source double accumulation bit for bit while sums stay below 2^53.
std::vector<double> DistanceScores(const ResultGraph& gr,
                                   std::span<const uint32_t> positions,
                                   bool social_impact) {
  std::vector<double> out(positions.size());
  if (positions.empty()) return out;
  const size_t n = gr.NumNodes();
  // Result-graph weights are data path lengths: whole numbers >= 1. In()
  // mirrors Out(), so one scan finds the largest.
  uint32_t max_weight = 0;
  for (const auto& edges : gr.Out()) {
    for (const auto& [to, w] : edges) {
      EF_DCHECK(w >= 1.0 && w == std::floor(w)) << "non-integer weight " << w;
      max_weight = std::max(max_weight, static_cast<uint32_t>(w));
    }
  }
  BfsScratch scratch(n, max_weight);
  Reach fwd_reach(n), bwd_reach(social_impact ? n : 0);
  for (size_t first = 0; first < positions.size(); first += kLanes) {
    const auto batch = positions.subspan(first, std::min(kLanes, positions.size() - first));
    SlicedCounters sums, reached;
    MultiSourcePass(gr.Out(), batch, &scratch, &fwd_reach, &sums);
    for (uint32_t t : fwd_reach.visited) reached.Add(fwd_reach.seen[t], 0);
    if (social_impact) {
      MultiSourcePass(gr.In(), batch, &scratch, &bwd_reach, &sums);
      // Social impact counts a peer once whichever way it is connected.
      for (uint32_t t : bwd_reach.visited) {
        reached.Add(bwd_reach.seen[t] & ~fwd_reach.seen[t], 0);
      }
    }
    for (size_t lane = 0; lane < batch.size(); ++lane) {
      const double sum = static_cast<double>(sums.Lane(lane));
      const uint64_t peers = reached.Lane(lane) - 1;  // not the source itself
      if (peers == 0) {
        out[first + lane] = InfiniteDistance();
      } else if (social_impact) {
        out[first + lane] = sum / static_cast<double>(peers);
      } else {
        // Closeness = reached / sum; negate so smaller is better.
        out[first + lane] = -(static_cast<double>(peers) / sum);
      }
    }
  }
  return out;
}

}  // namespace

std::string_view RankingMetricName(RankingMetric metric) {
  switch (metric) {
    case RankingMetric::kSocialImpact: return "social-impact";
    case RankingMetric::kCloseness: return "closeness";
    case RankingMetric::kDegree: return "degree";
    case RankingMetric::kPageRank: return "pagerank";
    case RankingMetric::kTopicFusion: return "topic-fusion";
  }
  return "?";
}

std::optional<RankingMetric> ParseRankingMetric(std::string_view name) {
  if (name == "social-impact") return RankingMetric::kSocialImpact;
  if (name == "closeness") return RankingMetric::kCloseness;
  if (name == "degree") return RankingMetric::kDegree;
  if (name == "pagerank") return RankingMetric::kPageRank;
  if (name == "topic-fusion") return RankingMetric::kTopicFusion;
  return std::nullopt;
}

std::vector<double> ResultGraphPageRank(const ResultGraph& gr, double damping,
                                        int iterations) {
  const size_t n = gr.NumNodes();
  if (n == 0) return {};
  std::vector<double> rank(n, 1.0 / n), next(n);
  for (int it = 0; it < iterations; ++it) {
    double dangling = 0.0;
    std::fill(next.begin(), next.end(), (1.0 - damping) / n);
    for (uint32_t v = 0; v < n; ++v) {
      const auto& outs = gr.Out()[v];
      if (outs.empty()) {
        dangling += rank[v];
        continue;
      }
      double share = damping * rank[v] / outs.size();
      for (const auto& edge : outs) next[edge.first] += share;
    }
    double dangling_share = damping * dangling / n;
    for (double& r : next) r += dangling_share;
    rank.swap(next);
  }
  return rank;
}

std::vector<double> MetricScores(const ResultGraph& gr,
                                 std::span<const uint32_t> positions,
                                 RankingMetric metric) {
  for (uint32_t pos : positions) {
    EF_CHECK(pos < gr.NumNodes()) << "result position " << pos << " out of range";
  }
  switch (metric) {
    case RankingMetric::kSocialImpact:
    case RankingMetric::kTopicFusion:
      // The structure-only degenerate: without topic terms the fusion
      // reduces to its structure half. Real fusion is TopKTopicFusion.
      return DistanceScores(gr, positions, /*social_impact=*/true);
    case RankingMetric::kCloseness:
      return DistanceScores(gr, positions, /*social_impact=*/false);
    case RankingMetric::kDegree: {
      std::vector<double> out;
      out.reserve(positions.size());
      for (uint32_t pos : positions) {
        out.push_back(-static_cast<double>(gr.Out()[pos].size() + gr.In()[pos].size()));
      }
      return out;
    }
    case RankingMetric::kPageRank: {
      // One power iteration serves every position.
      const std::vector<double> pr = ResultGraphPageRank(gr);
      std::vector<double> out;
      out.reserve(positions.size());
      for (uint32_t pos : positions) out.push_back(-pr[pos]);
      return out;
    }
  }
  return std::vector<double>(positions.size(), 0.0);
}

double MetricScore(const ResultGraph& gr, uint32_t pos, RankingMetric metric) {
  return MetricScores(gr, std::span<const uint32_t>(&pos, 1), metric)[0];
}

}  // namespace expfinder
