// Graph simulation (every pattern edge maps to a single data edge; paper §II
// cites Henzinger–Henzinger–Kopke) is bounded simulation with every bound 1,
// and ComputeBoundedSimulation (bounded_simulation.h) computes it.
//
// ComputeSimulationNaive is the O(rounds * |Q| * |E|) textbook fixpoint kept
// as a test oracle.

#ifndef EXPFINDER_MATCHING_SIMULATION_H_
#define EXPFINDER_MATCHING_SIMULATION_H_

#include "src/graph/graph.h"
#include "src/graph/graph_snapshot.h"
#include "src/matching/candidates.h"
#include "src/matching/match_relation.h"
#include "src/query/pattern.h"

namespace expfinder {

class MatchContext;

/// Forwards to ComputeBoundedSimulation(s, q, options, ctx), which new code
/// calls directly; kept because loadbench/src/replay.cc calls it.
MatchRelation ComputeSimulation(const SnapshotPtr& s, const Pattern& q,
                                const MatchOptions& options, MatchContext* ctx);

/// Reference implementation (slow, obviously-correct) for patterns whose
/// every bound is 1 (checked); test oracle.
MatchRelation ComputeSimulationNaive(const Graph& g, const Pattern& q);

}  // namespace expfinder

#endif  // EXPFINDER_MATCHING_SIMULATION_H_
