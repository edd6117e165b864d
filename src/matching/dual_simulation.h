// Bounded dual simulation (Ma et al., PVLDB 2011) — matches must have the
// required ancestors as well as descendants. ComputeBoundedSimulation
// (bounded_simulation.h, which states the semantics) computes it under
// MatchSemantics::kDualSimulation.
//
// ComputeDualSimulationNaive re-derives the fixpoint against a dense
// distance matrix; it is the test oracle.

#ifndef EXPFINDER_MATCHING_DUAL_SIMULATION_H_
#define EXPFINDER_MATCHING_DUAL_SIMULATION_H_

#include "src/graph/graph.h"
#include "src/graph/graph_snapshot.h"
#include "src/matching/candidates.h"
#include "src/matching/match_relation.h"
#include "src/query/pattern.h"

namespace expfinder {

class MatchContext;

/// Forwards to ComputeBoundedSimulation(s, q, options, ctx,
/// MatchSemantics::kDualSimulation), which new code calls directly; kept
/// because loadbench/src/replay.cc calls it.
MatchRelation ComputeDualSimulation(const SnapshotPtr& s, const Pattern& q,
                                    const MatchOptions& options, MatchContext* ctx);

/// Reference implementation against a dense distance matrix; test oracle
/// (graphs <= 4096 nodes).
MatchRelation ComputeDualSimulationNaive(const Graph& g, const Pattern& q);

}  // namespace expfinder

#endif  // EXPFINDER_MATCHING_DUAL_SIMULATION_H_
