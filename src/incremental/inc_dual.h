// Incremental maintenance of M(Q,G) under bounded *dual* simulation — the
// symmetric completion of IncrementalBoundedSimulation: a match depends on
// matches inside both its forward window (descendant constraints) and its
// backward window (ancestor constraints), so every maintenance phase — seed
// collection, restore closure, counter recomputation and the removal
// cascade — runs in both directions.
//
// Like the bounded maintainer, every bounded traversal is served from a
// MaintainedBallIndex when the pattern fits under the index caps; both
// directions of the per-batch seed sets double as the index's dirty sets.
//
// Result always equals ComputeDualSimulation on the updated graph
// (property-tested on random update streams).

#ifndef EXPFINDER_INCREMENTAL_INC_DUAL_H_
#define EXPFINDER_INCREMENTAL_INC_DUAL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/graph/bfs.h"
#include "src/graph/graph.h"
#include "src/graph/khop_index.h"
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
  /// candidates come from a label scan of `g`; options.ball_index governs
  /// the maintained ball index.
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

  /// Ball-index observability (see IncrementalBoundedSimulation).
  size_t ball_index_builds() const {
    return dropped_builds_ + (index_ ? index_->builds() : 0);
  }
  size_t ball_hits() const { return ball_hits_; }
  size_t bfs_fallbacks() const { return bfs_fallbacks_; }
  bool ball_index_active() const { return index_ != nullptr; }

 private:
  Distance MaxInBound(PatternNodeId u) const;
  bool UseIndex() const { return index_ != nullptr && batch_index_; }
  void MarkSeedOut(NodeId w);
  void MarkSeedIn(NodeId w);
  void SeedNodesAround(const GraphUpdate& upd, bool use_index);
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

  /// Maintained ball index; null when disabled, unbounded, or capped out.
  std::unique_ptr<MaintainedBallIndex> index_;
  BallIndexOptions ball_opts_;
  /// Whether the current batch's traversals are served from the index (see
  /// BallIndexOptions::maintained_min_batch); true for the initial
  /// fixpoint.
  bool batch_index_ = true;
  size_t dropped_builds_ = 0;
  size_t ball_hits_ = 0;
  size_t bfs_fallbacks_ = 0;

  /// Per-batch state: seeds (union of both directions, drives the
  /// maintenance passes) plus the direction-separated dirty sets the index
  /// patch needs (populated only while an index is active).
  DenseBitset seed_bitmap_;  // 1 x n
  std::vector<NodeId> seed_nodes_;
  DenseBitset dirty_out_bitmap_;  // 1 x n
  std::vector<NodeId> dirty_out_;
  DenseBitset dirty_in_bitmap_;  // 1 x n
  std::vector<NodeId> dirty_in_;
  size_t last_affected_ = 0;
};

}  // namespace expfinder

#endif  // EXPFINDER_INCREMENTAL_INC_DUAL_H_
