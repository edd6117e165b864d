// Descriptive statistics over data graphs: degree profile, label histogram,
// SCC structure, reciprocity, and a diameter estimate. Printed by the
// manager CLI ("roll-up" view) and the team-formation example; the planner
// does not read them.

#ifndef EXPFINDER_GRAPH_STATS_H_
#define EXPFINDER_GRAPH_STATS_H_

#include <string>
#include <utility>
#include <vector>

#include "src/graph/graph.h"

namespace expfinder {

/// \brief Summary statistics of a Graph.
struct GraphStats {
  size_t num_nodes = 0;
  size_t num_edges = 0;
  double avg_out_degree = 0.0;
  size_t max_out_degree = 0;
  size_t max_in_degree = 0;
  /// Fraction of edges (u,v) whose reverse (v,u) also exists.
  double reciprocity = 0.0;
  /// (label name, node count), sorted by count descending.
  std::vector<std::pair<std::string, size_t>> label_histogram;
  uint32_t num_sccs = 0;
  size_t largest_scc = 0;
  /// Lower-bound estimate from BFS sweeps off sampled sources (hop metric,
  /// ignoring direction-unreachable pairs).
  Distance estimated_diameter = 0;
};

/// Computes statistics; `diameter_samples` BFS sweeps estimate the diameter
/// (0 disables the estimate).
GraphStats ComputeStats(const Graph& g, int diameter_samples = 8);

/// Multi-line human-readable rendering (the manager CLI "roll-up" view).
std::string FormatStats(const GraphStats& s);

}  // namespace expfinder

#endif  // EXPFINDER_GRAPH_STATS_H_
