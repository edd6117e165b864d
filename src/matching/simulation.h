// Graph simulation matching (every pattern edge maps to a single data
// edge) — the quadratic-time special case of bounded simulation used when
// all bounds are 1 (paper §II cites [6], Henzinger–Henzinger–Kopke).
//
// ComputeSimulation runs a counting worklist fixpoint in O(|Q| * |E|):
// for each pattern edge e = (u,u') and candidate v of u, cnt[e][v] counts
// v's successors currently matching u'. When a pair is invalidated, its
// predecessors' counters are decremented; zero counters cascade.
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

/// Computes M(Q,G) under graph-simulation semantics. Every edge bound must
/// be 1 (checked); use ComputeBoundedSimulation otherwise.
///
/// Snapshot form: evaluates against a published immutable GraphSnapshot,
/// binding `ctx` (required) to it and reusing its counter arrays across
/// calls. See bounded_simulation.h.
MatchRelation ComputeSimulation(const SnapshotPtr& s, const Pattern& q,
                                const MatchOptions& options, MatchContext* ctx);

/// One-shot form: captures a snapshot of `g` and evaluates it with a fresh
/// context (see bounded_simulation.h).
MatchRelation ComputeSimulation(const Graph& g, const Pattern& q,
                                const MatchOptions& options = {});

/// Reference implementation (slow, obviously-correct); test oracle.
MatchRelation ComputeSimulationNaive(const Graph& g, const Pattern& q);

}  // namespace expfinder

#endif  // EXPFINDER_MATCHING_SIMULATION_H_
