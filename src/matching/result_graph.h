// Result graphs (paper §II): the compact representation of M(Q,G) that the
// GUI visualizes and the ranking function operates on. Each node is a match
// of some query node; each edge (v, v') labelled d stands for a shortest
// data path of length d realizing a query edge between matches.
//
// Those edges are exactly the support pairs (match_context.h) whose two
// endpoints survive the matcher's refinement, so a read that just ran the
// matcher assembles its result graph from the run's pairs, with no
// traversal. A relation no matcher run produced on the served graph (a
// maintained relation, a decompressed answer) goes through the scan forms,
// which walk one forward ball or bounded BFS per match.

#ifndef EXPFINDER_MATCHING_RESULT_GRAPH_H_
#define EXPFINDER_MATCHING_RESULT_GRAPH_H_

#include <optional>
#include <vector>

#include "src/graph/graph.h"
#include "src/graph/graph_snapshot.h"
#include "src/graph/shortest_paths.h"
#include "src/matching/match_relation.h"
#include "src/query/pattern.h"

namespace expfinder {

class MatchContext;
struct SupportPairs;

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

  /// Pair form: assembles the same graph from `pairs`, the support pairs of
  /// the ComputeBoundedSimulation run that produced `m` for `q` (its
  /// context's Pairs(), before that context runs a matcher again). Keeps
  /// every pair whose two endpoints `m` matches; walks no graph, and sizes
  /// its scratch by candidates and pairs, not by |V|.
  ResultGraph(const Pattern& q, const MatchRelation& m, const SupportPairs& pairs);

  /// Number of result nodes.
  size_t NumNodes() const { return nodes_.size(); }
  size_t NumEdges() const { return num_edges_; }

  /// Data node id at result position `pos`.
  NodeId DataNode(uint32_t pos) const { return nodes_[pos]; }
  /// Result position of data node `v`, if matched (a binary search).
  std::optional<uint32_t> PositionOf(NodeId v) const;

  /// Weighted adjacency over result positions (weights = path lengths).
  const WeightedAdjacency& Out() const { return out_; }
  const WeightedAdjacency& In() const { return in_; }

  /// Result positions matching pattern node u.
  const std::vector<uint32_t>& MatchesOf(PatternNodeId u) const { return matches_of_[u]; }

  friend bool operator==(const ResultGraph&, const ResultGraph&) = default;

 private:
  /// Collects the matched nodes and their positions, and sizes the
  /// adjacency; every form starts here.
  void CollectNodes(const Pattern& q, const MatchRelation& m);
  /// The scan forms' body over the snapshot `ctx` is bound to.
  void Scan(const Pattern& q, const MatchRelation& m, MatchContext* ctx);
  /// Fills the adjacency source by source: for each result position a, in
  /// ascending order, and each pattern node u whose k-th match is a,
  /// `targets(u, k, add)` calls add(b, d) for every derivation of an edge
  /// a -> b of weight d (see the .cc).
  template <typename Targets>
  void Assemble(const MatchRelation& m, Targets&& targets);

  std::vector<NodeId> nodes_;  // sorted data ids
  WeightedAdjacency out_, in_;
  std::vector<std::vector<uint32_t>> matches_of_;
  size_t num_edges_ = 0;
};

}  // namespace expfinder

#endif  // EXPFINDER_MATCHING_RESULT_GRAPH_H_
