// Result graphs (paper §II): the compact representation of M(Q,G) that the
// GUI visualizes and the ranking function operates on. Each node is a match
// of some query node; each edge (v, v') labelled d stands for a shortest
// data path of length d realizing a query edge between matches.

#ifndef EXPFINDER_MATCHING_RESULT_GRAPH_H_
#define EXPFINDER_MATCHING_RESULT_GRAPH_H_

#include <optional>
#include <unordered_map>
#include <vector>

#include "src/graph/graph.h"
#include "src/graph/graph_snapshot.h"
#include "src/graph/shortest_paths.h"
#include "src/matching/match_relation.h"
#include "src/query/pattern.h"

namespace expfinder {

class MatchContext;

/// \brief Weighted digraph over the matched data nodes.
class ResultGraph {
 public:
  /// Builds the result graph of `m` over `g`: for every pattern edge
  /// (u, u', bound k) and every pair v in M(u), v' in M(u') with
  /// 0 < dist(v, v') <= k, an edge (v, v') with weight dist(v, v'). Parallel
  /// derivations keep the smallest weight.
  ///
  /// One-shot form: captures a snapshot of `g` (as the one-shot matchers
  /// do) and builds over it with a fresh context.
  ResultGraph(const Graph& g, const Pattern& q, const MatchRelation& m);

  /// Snapshot form: builds over a published immutable GraphSnapshot,
  /// binding `ctx` (required) to it — the construction rides the
  /// snapshot's shared CSR and whatever ball index the matchers warmed, and
  /// reuses the context's BFS buffers, so a serving read builds no CSR.
  ResultGraph(const SnapshotPtr& s, const Pattern& q, const MatchRelation& m,
              MatchContext* ctx);

  /// Number of result nodes.
  size_t NumNodes() const { return nodes_.size(); }
  size_t NumEdges() const { return num_edges_; }

  /// Data node id at result position `pos`.
  NodeId DataNode(uint32_t pos) const { return nodes_[pos]; }
  /// Result position of data node `v`, if matched.
  std::optional<uint32_t> PositionOf(NodeId v) const;

  /// Weighted adjacency over result positions (weights = path lengths).
  const WeightedAdjacency& Out() const { return out_; }
  const WeightedAdjacency& In() const { return in_; }

  /// Result positions matching pattern node u.
  const std::vector<uint32_t>& MatchesOf(PatternNodeId u) const { return matches_of_[u]; }

 private:
  /// Shared body over the snapshot `ctx` is bound to.
  void Build(const Pattern& q, const MatchRelation& m, MatchContext* ctx);

  std::vector<NodeId> nodes_;  // sorted data ids
  std::unordered_map<NodeId, uint32_t> index_;
  WeightedAdjacency out_, in_;
  std::vector<std::vector<uint32_t>> matches_of_;
  size_t num_edges_ = 0;
};

}  // namespace expfinder

#endif  // EXPFINDER_MATCHING_RESULT_GRAPH_H_
