// Incremental maintenance of M(Q,G) (paper §II "Incremental Computation
// Module", Example 3; the counting fixpoint of Fan et al., SIGMOD 2011,
// "[3]" in the demo paper, adapted to the distance-window fixpoint). One
// maintainer serves every semantics the engine evaluates: bounded
// simulation, graph simulation as its bound-1 case, and dual simulation.
//
// Unlike plain simulation, an edge update changes shortest distances, so the
// maintained counters fwd[e=(u,u')][v] = |{v' in M(u') : 0 < dist(v,v') <=
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
// Dual simulation (MatchSemantics::kDualSimulation, see
// bounded_simulation.h) also requires a match's parents to match: a pair
// depends on matches in its backward window too. The maintainer then keeps a
// second set of counters,
// bwd[e=(u',u)][v] = |{v' in M(u') : 0 < dist(v',v) <= bound(e)}|, and runs
// every phase above in both directions as well: the descendants of a touched
// edge's target are seeded, and the restore closure, the counter patches and
// the removal cascade also walk pattern out-edges x bounded forward BFS.
//
// Every bounded traversal above is a hop-bounded BFS over the live graph.
// A batch reads only the balls around its touched edges, so keeping a ball
// index of the whole graph fresh would cost more than those BFSes (measured
// by bench_incremental); the batch matcher reads the snapshot-owned
// KhopIndex (khop_index.h) instead.
//
// The result always equals batch recomputation (property-tested against
// ComputeBoundedSimulation under both semantics, and against the
// ComputeSimulationNaive oracle on bound-1 patterns);
// the cost is proportional to |AFF|, which is why incremental wins at low
// churn and loses to batch beyond a few percent (reproduced by
// bench_incremental).

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

/// \brief Maintains M(Q,G) across edge updates and node additions, under
/// bounded (incl. plain) or dual simulation.
class IncrementalBoundedSimulation {
 public:
  /// Computes the initial relation; `g` must outlive this object. Any
  /// pattern accepted by the batch matchers works (bounds >= 1, cyclic
  /// patterns included). Initial candidates come from a label scan of `g`
  /// under `options`; the traversals BFS `g`, so options.ball_index has no
  /// effect here.
  IncrementalBoundedSimulation(
      Graph* g, Pattern q, const MatchOptions& options = {},
      MatchSemantics semantics = MatchSemantics::kBoundedSimulation);

  const Pattern& pattern() const { return q_; }

  /// Current M(Q,G), normalized like the batch matchers.
  MatchRelation Snapshot() const;

  /// Convenience: mutate the graph by `batch` and maintain M; returns the
  /// net delta. The batch is validated first (ValidateBatch): when any
  /// update would fail, neither the graph nor M changes.
  Result<MatchDelta> ApplyBatch(const UpdateBatch& batch);

  /// Two-phase protocol for callers that mutate the graph themselves (the
  /// query engine applies one batch to many maintained queries): call
  /// PreUpdate before mutating, PostUpdate after. The batch must apply.
  void PreUpdate(const UpdateBatch& batch);
  MatchDelta PostUpdate(const UpdateBatch& batch);

  /// |AFF| of the last batch: seed nodes + restored pairs, the cost driver
  /// reported in benchmarks.
  size_t last_affected_size() const { return last_affected_; }

  /// Extends the maintained state after `g` grew by one (edge-less) node:
  /// the node becomes a candidate immediately, and a match of every
  /// candidate pattern node it cannot violate (no out-edges; under dual
  /// semantics no in-edges either). Connect it via ApplyBatch afterwards.
  void OnNodeAdded(NodeId v);

 private:
  void MarkSeed(NodeId w);
  /// Seeds the nodes whose windows `upd` may change, in the current graph:
  /// pre-mutation for deletions (PreUpdate), post-mutation for insertions
  /// (PostUpdate). Those are `upd.src` and every node within seed_depth_
  /// hops backwards of it; under dual semantics also `upd.dst` and every
  /// node within seed_depth_ hops forwards of it.
  void SeedNodesAround(const GraphUpdate& upd);
  /// Recounts cnt[e][v] for `edges` by one bounded BFS from v: forward
  /// over out-edges (fwd_), or backward over in-edges (bwd_).
  template <bool kForward>
  void CountWindow(NodeId v, const std::vector<uint32_t>& edges,
                   std::vector<std::vector<int32_t>>* cnt);
  void RecomputeCounters(PatternNodeId u, NodeId v);
  bool Dead(PatternNodeId u, NodeId v) const;
  /// Calls fn(u', w, counters) for every candidate pair (u', w) whose
  /// counter for some pattern edge e may count (u, v) as support: pattern
  /// in-edges (u', u) x nodes w within bound(e) hops backwards of v
  /// (counters = fwd_[e]), and under dual semantics pattern out-edges
  /// (u, u') x nodes within bound(e) hops forwards of v (bwd_[e]).
  template <typename Fn>
  void ForEachDependent(PatternNodeId u, NodeId v, Fn&& fn);
  void RunRemovalFixpoint(
      MatchDelta* delta,
      const std::vector<std::pair<PatternNodeId, NodeId>>& restored);

  Graph* g_;
  Pattern q_;
  bool dual_;
  Distance seed_depth_ = 0;  // maxBound - 1, saturating
  CandidateSets cand_;
  DenseBitset mat_;
  std::vector<std::vector<int32_t>> fwd_;  // per pattern edge, src side
  std::vector<std::vector<int32_t>> bwd_;  // per pattern edge, dst side (dual)
  DenseBitset restore_mark_;               // per pattern node, reused
  std::vector<std::pair<PatternNodeId, NodeId>> worklist_;
  BfsBuffers buf_;

  // Seed nodes (= nodes whose bounded windows a batch may change),
  // accumulated across the Pre/Post phases of the current batch.
  DenseBitset seed_bitmap_;  // 1 x n
  std::vector<NodeId> seed_nodes_;
  size_t last_affected_ = 0;
};

}  // namespace expfinder

#endif  // EXPFINDER_INCREMENTAL_INC_BOUNDED_H_
