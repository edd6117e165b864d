// Incremental maintenance of M(Q,G) for *bounded* simulation patterns
// (paper §II "Incremental Computation Module", Example 3; techniques of
// [3] adapted to the distance-window fixpoint).
//
// Unlike plain simulation, an edge update changes shortest distances, so the
// maintained counters cnt[e=(u,u')][v] = |{v' in M(u') : 0 < dist(v,v') <=
// bound(e)}| can change for every node within the pattern's largest bound of
// the touched edge. The maintenance is affected-area-proportional:
//
//   seeds  = nodes within (maxBound-1) hops *backwards* of a touched edge's
//            source, measured in the pre-update graph for deletions and the
//            post-update graph for insertions (these are exactly the nodes
//            whose bounded out-window may have changed);
//   restore= backward product closure (pattern in-edge x bounded reverse
//            BFS) of non-matching candidates from the seeds — the pairs
//            whose status may improve (needed for cyclic patterns);
//   then counters of seeds+restored pairs are recomputed by bounded BFS,
//   counters of untouched pairs are patched by increments from restored
//   pairs, and the standard removal cascade prunes to the greatest
//   fixpoint.
//
// Every bounded traversal above — seed collection, counter recomputation,
// the restore closure, and the removal cascade — is served from a
// MaintainedBallIndex (see khop_index.h) when the pattern's max bound fits
// under the index caps: the balls a batch invalidates are exactly the seed
// sets already being computed, so the index is patched per batch (full
// rebuild only when the affected area is large) and each traversal becomes
// a flat span scan instead of a BFS. When the index is disabled, capped
// out, or the pattern is unbounded, the original BFS paths run — with
// bit-identical results (property-tested).
//
// The result always equals batch recomputation (property-tested); the cost
// is proportional to |AFF|, which is why incremental wins at low churn and
// loses to batch beyond roughly 10% (reproduced by bench_incremental).

#ifndef EXPFINDER_INCREMENTAL_INC_BOUNDED_H_
#define EXPFINDER_INCREMENTAL_INC_BOUNDED_H_

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

/// \brief Maintains M(Q,G) for a bounded-simulation pattern across edge
/// updates.
class IncrementalBoundedSimulation {
 public:
  /// Computes the initial relation; `g` must outlive this object. Any
  /// pattern accepted by ComputeBoundedSimulation works (bounds >= 1,
  /// cyclic patterns included). Initial candidates come from a label scan
  /// of `g`; options.ball_index governs the maintained ball index.
  IncrementalBoundedSimulation(Graph* g, Pattern q, const MatchOptions& options = {});

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

  /// Extends the maintained state after `g` grew by one (edge-less) node;
  /// see IncrementalSimulation::OnNodeAdded.
  void OnNodeAdded(NodeId v);

  /// Ball-index observability: successful index (re)builds, traversals
  /// served from the index, and traversals that fell back to BFS while the
  /// index was requested.
  size_t ball_index_builds() const {
    return dropped_builds_ + (index_ ? index_->builds() : 0);
  }
  size_t ball_hits() const { return ball_hits_; }
  size_t bfs_fallbacks() const { return bfs_fallbacks_; }
  /// True while traversals are being served from the ball index.
  bool ball_index_active() const { return index_ != nullptr; }

 private:
  bool UseIndex() const { return index_ != nullptr && batch_index_; }
  void MarkSeed(NodeId w);
  void MarkDirtyIn(NodeId w);
  /// Seed collection around a touched edge source. `use_index` is true only
  /// in PreUpdate, where the index still describes the (pre-mutation) graph
  /// the deletion semantics need; PostUpdate insertion seeds BFS the
  /// post-mutation graph directly (the index is patched from them next).
  void SeedNodesAround(NodeId src, bool use_index);
  /// Forward counterpart for the in-balls the index must re-derive
  /// (refinement scans BallIn); only tracked while an index is active.
  void CollectDirtyIn(NodeId dst, bool use_index);
  void RecomputeCounters(PatternNodeId u, NodeId v);
  void AddToWorklistIfDead(PatternNodeId u, NodeId v);
  void RunRemovalFixpoint(
      MatchDelta* delta,
      const std::vector<std::pair<PatternNodeId, NodeId>>& restored);
  void ClearBatchState();

  Graph* g_;
  Pattern q_;
  Distance seed_depth_ = 0;  // maxBound - 1, saturating
  CandidateSets cand_;
  DenseBitset mat_;
  std::vector<std::vector<int32_t>> cnt_;  // per pattern edge
  DenseBitset restore_mark_;               // per pattern node, reused
  std::vector<std::pair<PatternNodeId, NodeId>> worklist_;
  BfsBuffers buf_;

  /// Maintained ball index; null when disabled, unbounded, or capped out.
  std::unique_ptr<MaintainedBallIndex> index_;
  BallIndexOptions ball_opts_;
  /// Whether the current batch's traversals are served from the index
  /// (small batches keep the shallow-BFS path and only mark staleness —
  /// see BallIndexOptions::maintained_min_batch). True for the initial
  /// fixpoint.
  bool batch_index_ = true;
  size_t dropped_builds_ = 0;  // builds() of an index dropped on budget
  size_t ball_hits_ = 0;
  size_t bfs_fallbacks_ = 0;

  // Seed nodes (= nodes whose out-balls a batch invalidates) and dirty
  // in-ball nodes accumulated across Pre/Post phases of the current batch.
  DenseBitset seed_bitmap_;  // 1 x n
  std::vector<NodeId> seed_nodes_;
  DenseBitset dirty_in_bitmap_;  // 1 x n
  std::vector<NodeId> dirty_in_;
  size_t last_affected_ = 0;
};

}  // namespace expfinder

#endif  // EXPFINDER_INCREMENTAL_INC_BOUNDED_H_
