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
// Every bounded traversal above is a hop-bounded BFS over the live graph.
// A batch reads only the balls around its touched edges, so keeping a ball
// index of the whole graph fresh would cost more than those BFSes (measured
// by bench_incremental); the batch matchers read the snapshot-owned
// KhopIndex (khop_index.h) instead.
//
// The result always equals batch recomputation (property-tested); the cost
// is proportional to |AFF|, which is why incremental wins at low churn and
// loses to batch beyond roughly 10% (reproduced by bench_incremental).

#ifndef EXPFINDER_INCREMENTAL_INC_BOUNDED_H_
#define EXPFINDER_INCREMENTAL_INC_BOUNDED_H_

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

/// \brief Maintains M(Q,G) for a bounded-simulation pattern across edge
/// updates.
class IncrementalBoundedSimulation {
 public:
  /// Computes the initial relation; `g` must outlive this object. Any
  /// pattern accepted by ComputeBoundedSimulation works (bounds >= 1,
  /// cyclic patterns included). Initial candidates come from a label scan
  /// of `g` under `options`; the traversals BFS `g`, so
  /// options.ball_index has no effect here.
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

 private:
  void MarkSeed(NodeId w);
  /// Seeds `src` and every node within seed_depth_ hops backwards of it in
  /// the current graph: pre-mutation for deletions (PreUpdate), post-
  /// mutation for insertions (PostUpdate).
  void SeedNodesAround(NodeId src);
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

  // Seed nodes (= nodes whose bounded out-windows a batch may change),
  // accumulated across the Pre/Post phases of the current batch.
  DenseBitset seed_bitmap_;  // 1 x n
  std::vector<NodeId> seed_nodes_;
  size_t last_affected_ = 0;
};

}  // namespace expfinder

#endif  // EXPFINDER_INCREMENTAL_INC_BOUNDED_H_
