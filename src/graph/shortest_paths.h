// Weighted shortest paths. The data graph itself is unweighted (hop
// distances, see bfs.h); weighted Dijkstra runs over the *result graph*,
// whose edges carry shortest-path lengths. Ranking scores result graphs with
// a batched multi-source BFS (ranking/metrics.h); per-source Dijkstra is the
// reference its tests compare against.

#ifndef EXPFINDER_GRAPH_SHORTEST_PATHS_H_
#define EXPFINDER_GRAPH_SHORTEST_PATHS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/graph/graph.h"
#include "src/graph/types.h"

namespace expfinder {

/// Adjacency list with edge weights: adj[v] = {(neighbor, weight), ...}.
using WeightedAdjacency = std::vector<std::vector<std::pair<uint32_t, double>>>;

/// Marker for "no path" in Dijkstra outputs.
double InfiniteDistance();

/// Single-source Dijkstra over non-negative weights; dist[src] == 0,
/// unreachable nodes get InfiniteDistance().
std::vector<double> DijkstraFrom(const WeightedAdjacency& adj, uint32_t src);

/// \brief Dense all-pairs shortest *nonempty*-path hop distances, capped at
/// `max_depth`. Row-major: entry(u, v) = length of the shortest path u -> v
/// with at least one edge, or kUnreachable.
///
/// Quadratic memory — intended as a test oracle and for Fig.1-scale graphs;
/// callers are checked against n <= 4096.
class DistanceMatrix {
 public:
  DistanceMatrix(const Graph& g, Distance max_depth);

  Distance At(NodeId u, NodeId v) const { return d_[u * n_ + v]; }
  size_t n() const { return n_; }

 private:
  size_t n_;
  std::vector<Distance> d_;
};

}  // namespace expfinder

#endif  // EXPFINDER_GRAPH_SHORTEST_PATHS_H_
