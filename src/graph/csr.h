// Immutable compressed-sparse-row snapshot of a Graph's topology.
//
// Matching engines run their fixpoints over the CSR a GraphSnapshot builds
// once per published version: BFS over flat arrays is markedly faster than
// chasing per-node vectors, and the snapshot pins the topology against
// concurrent mutation.

#ifndef EXPFINDER_GRAPH_CSR_H_
#define EXPFINDER_GRAPH_CSR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/graph/graph.h"
#include "src/graph/types.h"

namespace expfinder {

/// \brief Flat forward + reverse adjacency arrays for a fixed topology.
class Csr {
 public:
  /// Snapshots the topology of `g` (labels/attributes are not copied; keep
  /// the Graph alive for those).
  explicit Csr(const Graph& g);

  size_t NumNodes() const { return num_nodes_; }
  size_t NumEdges() const { return out_nbrs_.size(); }

  std::span<const NodeId> Out(NodeId v) const {
    return {out_nbrs_.data() + out_off_[v], out_off_[v + 1] - out_off_[v]};
  }
  std::span<const NodeId> In(NodeId v) const {
    return {in_nbrs_.data() + in_off_[v], in_off_[v + 1] - in_off_[v]};
  }
  size_t OutDegree(NodeId v) const { return out_off_[v + 1] - out_off_[v]; }
  size_t InDegree(NodeId v) const { return in_off_[v + 1] - in_off_[v]; }

 private:
  size_t num_nodes_;
  std::vector<uint64_t> out_off_, in_off_;
  std::vector<NodeId> out_nbrs_, in_nbrs_;
};

}  // namespace expfinder

#endif  // EXPFINDER_GRAPH_CSR_H_
