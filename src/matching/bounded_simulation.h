// Bounded simulation matching — the paper's core notion (§II, from Fan et
// al., PVLDB 2010): a pattern edge (u,u') with bound k maps to a *nonempty
// path* of length <= k between matches, so experts who collaborated
// indirectly still match.
//
// ComputeBoundedSimulation runs the cubic-time worklist fixpoint:
//   cnt[e=(u,u')][v] = |{v' in mat(u') : 0 < dist(v,v') <= bound(e)}|
// seeded by forward hop-bounded BFS from every candidate; removing v' from
// mat(u') triggers a reverse bounded BFS decrementing supporters, and zero
// counters cascade. Graph simulation is the special case bound == 1.
//
// ComputeBoundedSimulationNaive re-derives the fixpoint against a dense
// distance matrix; it is the test oracle (graphs <= 4096 nodes).

#ifndef EXPFINDER_MATCHING_BOUNDED_SIMULATION_H_
#define EXPFINDER_MATCHING_BOUNDED_SIMULATION_H_

#include "src/graph/graph.h"
#include "src/graph/graph_snapshot.h"
#include "src/matching/candidates.h"
#include "src/matching/match_relation.h"
#include "src/query/pattern.h"

namespace expfinder {

class MatchContext;

/// Computes M(Q,G) under bounded-simulation semantics. Handles any bounds
/// (including kUnboundedEdge = reachability), and fans the seeding phase
/// out over options.num_threads workers (deterministic: identical results
/// for every thread count).
///
/// Snapshot form: evaluates against a published immutable GraphSnapshot.
/// Binds `ctx` (required) to the snapshot — the CSR, ball index and topic
/// index come from the snapshot, shared with every other reader of the
/// same version, and the binding persists so ResultGraph construction
/// rides the same state; the context's BFS buffers and counter arrays are
/// reused across calls. This is the serving path: any number of threads may
/// evaluate against one snapshot concurrently, each with its own context.
MatchRelation ComputeBoundedSimulation(const SnapshotPtr& s, const Pattern& q,
                                       const MatchOptions& options, MatchContext* ctx);

/// One-shot form: captures a snapshot of `g` and evaluates it with a fresh
/// context. The capture shares `g`'s topic-index slot (Graph::topic_slot),
/// so a text predicate here ages, and may build, the index that every
/// snapshot of the same content reads.
MatchRelation ComputeBoundedSimulation(const Graph& g, const Pattern& q,
                                       const MatchOptions& options = {});

/// Reference implementation against a dense all-pairs distance matrix;
/// requires g.NumNodes() <= 4096.
MatchRelation ComputeBoundedSimulationNaive(const Graph& g, const Pattern& q);

}  // namespace expfinder

#endif  // EXPFINDER_MATCHING_BOUNDED_SIMULATION_H_
