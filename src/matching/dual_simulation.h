// Bounded *dual* simulation — the natural strengthening of bounded
// simulation from the same research line (Ma et al., "Capturing topology in
// graph pattern matching", PVLDB 2011): a match must satisfy its pattern
// node's *incoming* edges too, i.e. have the required ancestors, not just
// descendants. This prunes "stray" matches that bounded simulation admits
// (e.g. a tester nobody on the team ever worked with), at the same
// asymptotic cost. Listed as an extension experiment E8/E9 in DESIGN.md.
//
// Semantics: M(Q,G) is the maximum relation such that every pattern node
// has a match and for each (u,v) in M:
//   - v satisfies u's label and search conditions;
//   - for every pattern edge (u,u') with bound k there is v' with
//     (u',v') in M and a nonempty path v -> v' of length <= k;
//   - for every pattern edge (u'',u) with bound k there is v'' with
//     (u'',v'') in M and a nonempty path v'' -> v of length <= k.
//
// Dual simulation is contained in bounded simulation (it only adds
// constraints); with all bounds 1 and no in-edge constraints it degenerates
// to plain simulation.

#ifndef EXPFINDER_MATCHING_DUAL_SIMULATION_H_
#define EXPFINDER_MATCHING_DUAL_SIMULATION_H_

#include "src/graph/graph.h"
#include "src/graph/graph_snapshot.h"
#include "src/matching/candidates.h"
#include "src/matching/match_relation.h"
#include "src/query/pattern.h"

namespace expfinder {

class MatchContext;

/// Computes M(Q,G) under bounded dual-simulation semantics (any bounds,
/// cyclic patterns, kUnboundedEdge supported), parallelizing the seeding
/// phase deterministically over options.num_threads workers.
///
/// Snapshot form: evaluates against a published immutable GraphSnapshot,
/// binding `ctx` (required) to it and reusing its BFS buffers and both
/// counter families across calls. See bounded_simulation.h.
MatchRelation ComputeDualSimulation(const SnapshotPtr& s, const Pattern& q,
                                    const MatchOptions& options, MatchContext* ctx);

/// One-shot form: captures a snapshot of `g` and evaluates it with a fresh
/// context (see bounded_simulation.h).
MatchRelation ComputeDualSimulation(const Graph& g, const Pattern& q,
                                    const MatchOptions& options = {});

/// Reference implementation against a dense distance matrix; test oracle
/// (graphs <= 4096 nodes).
MatchRelation ComputeDualSimulationNaive(const Graph& g, const Pattern& q);

}  // namespace expfinder

#endif  // EXPFINDER_MATCHING_DUAL_SIMULATION_H_
