// Breadth-first traversal primitives.
//
// The matching engines' inner loops are hop-bounded BFS sweeps, so these are
// header-inline templates over any graph-like type (Graph or Csr) with
// reusable scratch buffers to avoid O(n) clearing per call.
//
// A subtlety required by bounded simulation (paper §II): a pattern edge
// (u, u') with bound k maps to a *nonempty* path of length <= k, and the
// endpoints may coincide (v reaches itself through a cycle). The NonEmpty
// variants therefore do not pre-mark the source: they seed the frontier with
// its neighbors at depth 1, so the source itself is visited iff it lies on a
// cycle, at its shortest nonempty distance.

#ifndef EXPFINDER_GRAPH_BFS_H_
#define EXPFINDER_GRAPH_BFS_H_

#include <vector>

#include "src/graph/csr.h"
#include "src/graph/graph.h"
#include "src/graph/types.h"

namespace expfinder {

/// Forward-adjacency accessors unifying Graph and Csr.
inline const std::vector<NodeId>& OutAdj(const Graph& g, NodeId v) {
  return g.OutNeighbors(v);
}
inline const std::vector<NodeId>& InAdj(const Graph& g, NodeId v) {
  return g.InNeighbors(v);
}
inline std::span<const NodeId> OutAdj(const Csr& g, NodeId v) { return g.Out(v); }
inline std::span<const NodeId> InAdj(const Csr& g, NodeId v) { return g.In(v); }

/// \brief Reusable BFS scratch: distance array + queue + touched list.
/// EnsureSize once, then Release after each traversal for O(|visited|) reset.
struct BfsBuffers {
  std::vector<Distance> dist;
  std::vector<NodeId> queue;
  std::vector<NodeId> touched;

  void EnsureSize(size_t n) {
    if (dist.size() < n) dist.resize(n, kUnreachable);
  }
  /// Resets only the entries touched by the last traversal.
  void Release() {
    for (NodeId v : touched) dist[v] = kUnreachable;
    touched.clear();
    queue.clear();
  }
};

/// Runs a hop-bounded BFS over *nonempty* paths from `src`, following out-
/// edges when Forward, in-edges otherwise. Calls `visit(w, d)` exactly once
/// per reached node at its shortest nonempty distance d in [1, max_depth].
/// Buffers must be EnsureSize(n)-ed; they are Released before returning.
template <bool Forward, typename GraphLike, typename Visit>
void BoundedBfsNonEmpty(const GraphLike& g, NodeId src, Distance max_depth,
                        BfsBuffers* buf, Visit&& visit) {
  if (max_depth == 0) return;
  auto neighbors = [&](NodeId v) {
    if constexpr (Forward) {
      return OutAdj(g, v);
    } else {
      return InAdj(g, v);
    }
  };
  if (max_depth == 1) {
    // The depth-1 visit set is the adjacency list itself: lists hold each
    // neighbour once (Graph::AddEdge rejects duplicates and every
    // AddEdgeUnchecked caller dedups first), so no marks and no queue.
    for (NodeId w : neighbors(src)) visit(w, Distance{1});
    return;
  }
  // Seed with the 1-hop neighborhood; src is intentionally NOT pre-marked so
  // it can be re-reached through a cycle.
  for (NodeId w : neighbors(src)) {
    if (buf->dist[w] == kUnreachable) {
      buf->dist[w] = 1;
      buf->touched.push_back(w);
      buf->queue.push_back(w);
      visit(w, Distance{1});
    }
  }
  size_t head = 0;
  while (head < buf->queue.size()) {
    NodeId v = buf->queue[head++];
    Distance d = buf->dist[v];
    if (d >= max_depth) continue;
    for (NodeId w : neighbors(v)) {
      if (buf->dist[w] == kUnreachable) {
        buf->dist[w] = d + 1;
        buf->touched.push_back(w);
        buf->queue.push_back(w);
        visit(w, static_cast<Distance>(d + 1));
      }
    }
  }
  buf->Release();
}

/// Classic single-source shortest hop distances (empty path allowed, so
/// dist[src] == 0), up to `max_depth` (kUnreachable = no bound).
/// Returns a dense distance vector of size NumNodes().
std::vector<Distance> SingleSourceDistances(const Graph& g, NodeId src,
                                            Distance max_depth = kUnreachable);

/// Reverse-edge counterpart of SingleSourceDistances: dist[w] = hops from w
/// to src.
std::vector<Distance> SingleTargetDistances(const Graph& g, NodeId dst,
                                            Distance max_depth = kUnreachable);

/// True iff a (possibly empty) path src -> dst exists.
bool Reachable(const Graph& g, NodeId src, NodeId dst);

}  // namespace expfinder

#endif  // EXPFINDER_GRAPH_BFS_H_
