// Incremental maintenance of M(Q,G) under bounded *dual* simulation — the
// symmetric completion of IncrementalBoundedSimulation: a match depends on
// matches inside both its forward window (descendant constraints) and its
// backward window (ancestor constraints), so every maintenance phase — seed
// collection, restore closure, counter recomputation and the removal
// cascade — runs in both directions.
//
// Like the bounded maintainer, every bounded traversal is a hop-bounded BFS
// over the live graph (see inc_bounded.h for why no ball index serves it).
//
// Result always equals ComputeDualSimulation on the updated graph
// (property-tested on random update streams).

#ifndef EXPFINDER_INCREMENTAL_INC_DUAL_H_
#define EXPFINDER_INCREMENTAL_INC_DUAL_H_

#include <cstdint>
#include <vector>

#include "src/graph/bfs.h"
#include "src/graph/graph.h"
#include "src/incremental/update.h"
#include "src/matching/candidates.h"
#include "src/matching/match_relation.h"
#include "src/query/pattern.h"
#include "src/util/dense_bitset.h"

namespace expfinder {

/// \brief Maintains the bounded dual-simulation relation across edge
/// updates and node additions.
class IncrementalDualSimulation {
 public:
  /// Computes the initial relation; `g` must outlive this object. Initial
  /// candidates come from a label scan of `g` under `options`; the
  /// traversals BFS `g`, so options.ball_index has no effect here.
  IncrementalDualSimulation(Graph* g, Pattern q, const MatchOptions& options = {});

  const Pattern& pattern() const { return q_; }

  /// Current M(Q,G), normalized like the batch matchers.
  MatchRelation Snapshot() const;

  /// Convenience: mutate the graph and maintain M; returns the net delta.
  Result<MatchDelta> ApplyBatch(const UpdateBatch& batch);

  /// Two-phase protocol (PreUpdate before the graph mutates, PostUpdate
  /// after); see IncrementalSimulation.
  void PreUpdate(const UpdateBatch& batch);
  MatchDelta PostUpdate(const UpdateBatch& batch);

  /// |AFF| of the last batch: seed nodes + restored pairs.
  size_t last_affected_size() const { return last_affected_; }

  /// Extends the maintained state after `g` grew by one (edge-less) node.
  void OnNodeAdded(NodeId v);

 private:
  Distance MaxInBound(PatternNodeId u) const;
  void MarkSeed(NodeId w);
  /// Seeds both endpoints' windows of `upd` in the current graph (see
  /// IncrementalBoundedSimulation::SeedNodesAround).
  void SeedNodesAround(const GraphUpdate& upd);
  void RecomputeCounters(PatternNodeId u, NodeId v);
  bool Dead(PatternNodeId u, NodeId v) const;
  void RunRemovalFixpoint(
      MatchDelta* delta,
      const std::vector<std::pair<PatternNodeId, NodeId>>& restored);
  void ClearBatchState();

  Graph* g_;
  Pattern q_;
  Distance seed_depth_ = 0;  // maxBound - 1, saturating
  CandidateSets cand_;
  DenseBitset mat_;
  std::vector<std::vector<int32_t>> fwd_;  // per pattern edge, src side
  std::vector<std::vector<int32_t>> bwd_;  // per pattern edge, dst side
  DenseBitset restore_mark_;               // per pattern node
  std::vector<std::pair<PatternNodeId, NodeId>> worklist_;
  BfsBuffers buf_;

  /// Per-batch seeds, the union of both directions' changed windows.
  DenseBitset seed_bitmap_;  // 1 x n
  std::vector<NodeId> seed_nodes_;
  size_t last_affected_ = 0;
};

}  // namespace expfinder

#endif  // EXPFINDER_INCREMENTAL_INC_DUAL_H_
