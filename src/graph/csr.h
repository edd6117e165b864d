// Compressed-sparse-row view of a frozen Graph's topology.
//
// Matching engines run their fixpoints over the Csr of a published
// GraphSnapshot: BFS over flat arrays is markedly faster than chasing
// per-node vectors, and the snapshot pins the topology against concurrent
// mutation.
//
// The flat arrays are per page, not per graph. Sealing a 64-node adjacency
// page (graph.h) builds its CSR chunk once, in one allocation:
//
//   chunk[0 .. 64]    offsets: node i's neighbours are nbrs[chunk[i],
//                     chunk[i + 1]), where nbrs = chunk + 65
//   chunk[65 ..]      the page's neighbours, each list in the page's order
//
// A sealed page never changes, so its chunk serves every graph and snapshot
// sharing the page. A Csr is the table of its frozen graph's chunk pointers,
// one per page and direction: building it costs O(n / 64), and a publish
// after a small batch builds chunks only for the pages the batch touched.

#ifndef EXPFINDER_GRAPH_CSR_H_
#define EXPFINDER_GRAPH_CSR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/graph/graph.h"
#include "src/graph/types.h"

namespace expfinder {

/// \brief Forward + reverse adjacency of a frozen topology, read through the
/// CSR chunks of its sealed pages.
class Csr {
 public:
  size_t NumNodes() const { return num_nodes_; }
  size_t NumEdges() const { return num_edges_; }

  std::span<const NodeId> Out(NodeId v) const { return Row(out_[v >> kShift], v & kMask); }
  std::span<const NodeId> In(NodeId v) const { return Row(in_[v >> kShift], v & kMask); }
  size_t OutDegree(NodeId v) const { return Out(v).size(); }
  size_t InDegree(NodeId v) const { return In(v).size(); }

 private:
  friend class GraphSnapshot;

  static constexpr size_t kShift = Graph::kPageShift;
  static constexpr size_t kMask = Graph::kPageMask;
  static constexpr size_t kNbrsAt = Graph::kPageNodes + 1;

  /// Tables the chunks of `frozen`, whose pages must all be sealed (a
  /// snapshot's graph copy). `frozen` must outlive the Csr: it holds the
  /// pages, and so the chunks.
  explicit Csr(const Graph& frozen);

  static std::span<const NodeId> Row(const NodeId* chunk, size_t i) {
    return {chunk + kNbrsAt + chunk[i], chunk[i + 1] - chunk[i]};
  }

  size_t num_nodes_;
  size_t num_edges_;
  std::vector<const NodeId*> out_, in_;  // chunk per page
};

}  // namespace expfinder

#endif  // EXPFINDER_GRAPH_CSR_H_
