// Bounded simulation matching — the paper's core notion (§II, from Fan et
// al., PVLDB 2010): a pattern edge (u,u') with bound k maps to a *nonempty
// path* of length <= k between matches, so experts who collaborated
// indirectly still match. Graph simulation (every pattern edge maps to one
// data edge; paper §II cites Henzinger–Henzinger–Kopke) is its bound-1 case
// and runs the same code.
//
// Under MatchSemantics::kDualSimulation the same fixpoint computes bounded
// *dual* simulation (Ma et al., "Capturing topology in graph pattern
// matching", PVLDB 2011): a match must also satisfy its pattern node's
// *incoming* edges, i.e. have the required ancestors, not just descendants.
// This prunes "stray" matches that bounded simulation admits (e.g. a tester
// nobody on the team ever worked with), at the same asymptotic cost; the
// bench_semantics program measures how much it prunes. M(Q,G) is then the
// maximum relation such that every pattern node has a match and for each
// (u,v) in M:
//   - v satisfies u's label and search conditions;
//   - for every pattern edge (u,u') with bound k there is v' with
//     (u',v') in M and a nonempty path v -> v' of length <= k;
//   - for every pattern edge (u'',u) with bound k there is v'' with
//     (u'',v'') in M and a nonempty path v'' -> v of length <= k.
// Dual simulation is contained in bounded simulation (it only adds
// constraints), and the two coincide on an edge-less pattern.
//
// ComputeBoundedSimulation runs the cubic-time counting worklist fixpoint
// over one graph walk. Seeding scans the forward ball (or runs a
// hop-bounded BFS) of every candidate v of each pattern node u, up to u's
// largest out-bound, and records v's support pairs: for each out-edge
// e = (u, u'), every candidate v' of u' with 0 < dist(v, v') <= bound(e),
// with that distance (SupportPairs, match_context.h). The counters are
//   fwd[e][v]  = |{v' in mat(u') : (v, v') a pair of e}|
// and, under dual semantics, the mirror family
//   bwd[e][v'] = |{v in mat(u) : (v, v') a pair of e}|
// counted from the same pairs. Removing v' from mat(u') decrements fwd
// over a reverse index of e's pairs (and, dual, removing v decrements bwd
// over v's own pairs); zero counters cascade. After seeding nothing walks
// the graph: the fixpoint reads the pairs, and ResultGraph's pair form
// assembles the result graph from the pairs that survive.
//
// The *Naive functions in bounded_simulation.h, simulation.h and
// dual_simulation.h re-derive each fixpoint by brute force; they are the
// test oracles.

#ifndef EXPFINDER_MATCHING_BOUNDED_SIMULATION_H_
#define EXPFINDER_MATCHING_BOUNDED_SIMULATION_H_

#include "src/graph/graph.h"
#include "src/graph/graph_snapshot.h"
#include "src/matching/candidates.h"
#include "src/matching/match_relation.h"
#include "src/query/pattern.h"

namespace expfinder {

class MatchContext;

/// Computes M(Q,G) under `semantics`: bounded simulation (bound-1 patterns
/// give graph simulation) or bounded dual simulation. Handles any bounds
/// (including kUnboundedEdge = reachability) and cyclic patterns, and fans
/// the seeding phase out over options.num_threads workers (deterministic:
/// identical results for every thread count).
///
/// Snapshot form: evaluates against a published immutable GraphSnapshot.
/// Binds `ctx` (required) to the snapshot — the CSR, ball index and topic
/// index come from the snapshot, shared with every other reader of the
/// same version, and the binding persists so ResultGraph construction
/// rides the same state; the context's BFS buffers and support-pair
/// storage are reused across calls, and ctx->Pairs() holds this run's
/// pairs until the next. This is the serving path: any number of threads
/// may evaluate against one snapshot concurrently, each with its own
/// context.
MatchRelation ComputeBoundedSimulation(
    const SnapshotPtr& s, const Pattern& q, const MatchOptions& options,
    MatchContext* ctx, MatchSemantics semantics = MatchSemantics::kBoundedSimulation);

/// One-shot form: captures a snapshot of `g` and evaluates it with a fresh
/// context. The capture shares `g`'s topic-index slot (Graph::topic_slot),
/// so a text predicate here ages, and may build, the index that every
/// snapshot of the same content reads.
MatchRelation ComputeBoundedSimulation(
    const Graph& g, const Pattern& q, const MatchOptions& options = {},
    MatchSemantics semantics = MatchSemantics::kBoundedSimulation);

/// Reference implementation against a dense all-pairs distance matrix;
/// requires g.NumNodes() <= 4096.
MatchRelation ComputeBoundedSimulationNaive(const Graph& g, const Pattern& q);

}  // namespace expfinder

#endif  // EXPFINDER_MATCHING_BOUNDED_SIMULATION_H_
