// Graph update model: unit edge insertions/deletions and batches (paper
// §III, "Coping with the dynamic world": "unit update (single edge
// insertion/deletion) as well as batch updates (a list of edge
// insertions/deletions)").

#ifndef EXPFINDER_INCREMENTAL_UPDATE_H_
#define EXPFINDER_INCREMENTAL_UPDATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/graph/graph.h"
#include "src/query/pattern.h"
#include "src/util/status.h"

namespace expfinder {

/// \brief One edge insertion or deletion.
struct GraphUpdate {
  enum class Kind { kInsertEdge, kDeleteEdge };
  Kind kind = Kind::kInsertEdge;
  NodeId src = 0;
  NodeId dst = 0;

  static GraphUpdate Insert(NodeId src, NodeId dst) {
    return {Kind::kInsertEdge, src, dst};
  }
  static GraphUpdate Delete(NodeId src, NodeId dst) {
    return {Kind::kDeleteEdge, src, dst};
  }

  bool operator==(const GraphUpdate& other) const {
    return kind == other.kind && src == other.src && dst == other.dst;
  }
  std::string ToString() const;
};

using UpdateBatch = std::vector<GraphUpdate>;

/// Applies one update to `g` (AddEdge / RemoveEdge semantics and errors).
Status ApplyUpdate(Graph* g, const GraphUpdate& u);

/// Applies a whole batch; stops at the first failure, leaving the updates
/// before it applied. Run ValidateBatch first to apply all or nothing.
Status ApplyBatch(Graph* g, const UpdateBatch& batch);

/// Checks that every update of `batch` would apply to `g` in order (no
/// duplicate inserts, missing deletes or bad endpoints) without mutating
/// `g`; the error names the first update that would fail. O(|batch|): only
/// pairs touched by the batch are tracked; untouched pairs are consulted
/// via Graph::HasEdge.
Status ValidateBatch(const Graph& g, const UpdateBatch& batch);

/// \brief The affected-area test: for each of `patterns`, whether the edge
/// batch that turned `before` into `after` may change its match relation
/// (bounded or dual simulation) or its result graph. `false` is a proof of
/// "unchanged"; `true` means only "not ruled out".
///
/// Let D be the largest finite bound among the patterns. Once per batch,
/// each update (a, b) gets a's backward and b's forward neighbourhood to
/// depth D - 1 (a and b at distance 0), read from `after` for an insert and
/// from `before` for a delete. A pattern may change only if it has an
/// unbounded edge, or if some update and some pattern edge (u, u', k) have
/// an x satisfying u at distance d1 in a's neighbourhood and a y satisfying
/// u' at distance d2 in b's with d1 + 1 + d2 <= k. Otherwise no candidate
/// pair's distance within any bound moved: a path of length <= k that
/// appears or disappears runs through an inserted or deleted edge. The
/// relation is then unchanged, and so is the result graph, whose weights
/// are those distances. An edge batch leaves node content alone, so every
/// ranked list of the result graph stays valid too.
std::vector<bool> BatchMayChange(const Graph& before, const Graph& after,
                                 const UpdateBatch& batch,
                                 const std::vector<const Pattern*>& patterns);

/// \brief Generates a sequentially applicable random update stream against
/// the *current* state of `g` (without mutating it): deletions pick existing
/// edges, insertions pick absent pairs, each valid at its position in the
/// stream. `insert_fraction` in [0,1] sets the insert/delete mix.
UpdateBatch GenerateUpdateStream(const Graph& g, size_t count, double insert_fraction,
                                 uint64_t seed);

}  // namespace expfinder

#endif  // EXPFINDER_INCREMENTAL_UPDATE_H_
