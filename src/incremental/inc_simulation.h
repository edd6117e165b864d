// Incremental maintenance of M(Q,G) for graph-simulation patterns (all
// bounds == 1), after Fan et al., SIGMOD 2011 ("[3]" in the demo paper):
// instead of recomputing M from scratch on every change, the counting
// fixpoint of ComputeSimulation is kept as a materialized view and patched
// in time proportional to the affected area.
//
// Algorithm sketch (per batch; the graph is mutated between the two
// phases):
//   1. Counter arithmetic for touched edges: an inserted/deleted edge
//      (a,b) adjusts cnt[e][a] for every pattern edge e whose target
//      currently matches b.
//   2. Restore closure (insertions only): candidate pairs whose status may
//      improve are exactly those with a support-dependency chain to a
//      touched source. They are restored optimistically by a backward
//      product traversal (pattern in-edge x data in-edge), their counters
//      recomputed, and counters of unaffected neighbors incremented. This
//      step is what makes *cyclic* patterns correct: mutually dependent
//      pairs are restored together.
//   3. Removal fixpoint: standard cascade; prunes optimism and yields the
//      greatest fixpoint on the new graph (equal to batch recomputation,
//      which the tests verify on random update streams).

#ifndef EXPFINDER_INCREMENTAL_INC_SIMULATION_H_
#define EXPFINDER_INCREMENTAL_INC_SIMULATION_H_

#include <cstdint>
#include <vector>

#include "src/graph/graph.h"
#include "src/matching/candidates.h"
#include "src/matching/match_relation.h"
#include "src/incremental/update.h"
#include "src/query/pattern.h"

namespace expfinder {

/// \brief Maintains M(Q,G) for a simulation pattern across edge updates.
class IncrementalSimulation {
 public:
  /// Computes the initial match relation; `g` must outlive this object.
  /// The pattern must satisfy IsSimulationPattern(). Initial candidates
  /// come from a label scan of `g` (ComputeCandidates without an index).
  IncrementalSimulation(Graph* g, Pattern q, const MatchOptions& options = {});

  const Pattern& pattern() const { return q_; }

  /// Current M(Q,G) (all-or-nothing normalized, like the batch matchers).
  MatchRelation Snapshot() const;

  /// Convenience: mutate the graph by `batch` and maintain M; returns the
  /// net delta. Fails (and changes nothing) when any update is invalid.
  Result<MatchDelta> ApplyBatch(const UpdateBatch& batch);

  /// Two-phase protocol for callers that mutate the graph themselves
  /// (the query engine applies one batch to many maintained queries):
  /// call PreUpdate before mutating, PostUpdate after.
  void PreUpdate(const UpdateBatch& batch);
  MatchDelta PostUpdate(const UpdateBatch& batch);

  /// |affected area| of the last batch (restored + rechecked pairs), the
  /// cost driver reported in benchmarks.
  size_t last_affected_size() const { return last_affected_; }

  /// Extends the maintained state after `g` grew by one (edge-less) node:
  /// the node becomes a candidate (and, for pattern nodes without outgoing
  /// edges, a match) immediately; connect it via ApplyBatch afterwards.
  void OnNodeAdded(NodeId v);

 private:
  void AddToWorklistIfDead(PatternNodeId u, NodeId v);
  void RunRemovalFixpoint(
      MatchDelta* delta,
      const std::vector<std::pair<PatternNodeId, NodeId>>& restored);

  Graph* g_;
  Pattern q_;
  CandidateSets cand_;
  DenseBitset mat_;
  std::vector<std::vector<int32_t>> cnt_;  // per pattern edge
  DenseBitset restore_mark_;               // per pattern node, reused
  std::vector<std::pair<PatternNodeId, NodeId>> worklist_;
  size_t last_affected_ = 0;
};

}  // namespace expfinder

#endif  // EXPFINDER_INCREMENTAL_INC_SIMULATION_H_
