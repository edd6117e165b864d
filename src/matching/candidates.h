// Candidate-set computation shared by all matchers: for each pattern node,
// the data nodes satisfying its label requirement and search conditions
// (structure is checked later by the fixpoints).
//
// Conditions are compiled once per (pattern, graph): attribute names resolve
// to interned key ids, and a pattern node whose label or attribute key does
// not exist in the graph is marked impossible without scanning. An int
// comparison (`key ==, !=, <, <=, >, >= <int>`) on a key whose values are all
// ints reads the key's int column (index/attr_columns.h), built on the first
// seeding that needs it and shared by every copy of the graph's content
// version; every other condition evaluates Condition::Eval on the node's
// attribute. Either way a candidate is exactly a node PatternNode::Matches
// accepts.

#ifndef EXPFINDER_MATCHING_CANDIDATES_H_
#define EXPFINDER_MATCHING_CANDIDATES_H_

#include <cstdint>
#include <vector>

#include "src/graph/graph.h"
#include "src/graph/khop_index.h"
#include "src/index/topic_index.h"
#include "src/query/pattern.h"
#include "src/util/dense_bitset.h"

namespace expfinder {

class MatchContext;

/// \brief Tunables shared by the matchers.
struct MatchOptions {
  /// Initialize candidates from the graph's label index instead of scanning
  /// every node (the planner's main lever; see bench_ablation).
  bool use_label_index = true;
  /// Worker threads for the matchers' parallelizable seeding phase.
  /// 0 = hardware_concurrency (capped so each worker gets meaningful work);
  /// 1 forces the serial path; N > 1 is honoured as-is. The result is
  /// bit-for-bit identical for every thread count.
  uint32_t num_threads = 0;
  /// Ball-index participation and memory caps (see khop_index.h). The
  /// relation is bit-identical with the index enabled, disabled, or capped
  /// into fallback; only the traversal cost changes. The incremental
  /// maintainers BFS their live graph and ignore it.
  BallIndexOptions ball_index;
  /// Topic-index participation for text-predicate seeding (see
  /// index/topic_index.h). Same contract as the ball index: relations are
  /// bit-identical enabled, disabled, or capped — only who gets probed
  /// changes.
  TopicIndexOptions topic_index;
};

/// \brief Per-pattern-node candidate sets in both bitmap and list form.
struct CandidateSets {
  /// Test(u, v) iff data node v satisfies pattern node u's label and
  /// conditions (nq x n flat bit matrix).
  DenseBitset bitmap;
  /// The same sets as sorted id lists.
  std::vector<std::vector<NodeId>> list;
};

/// \brief Telemetry from one topic-seeded candidate computation.
struct TopicSeedStats {
  /// Pattern nodes whose candidates came from a posting list (including the
  /// degenerate "token unknown, set provably empty" hit).
  size_t posting_hits = 0;
  /// Pattern nodes with text predicates that scanned anyway: index missing,
  /// deferred, refused, or the best posting list no smaller than the scan.
  size_t seed_scan_fallbacks = 0;
};

/// Computes candidate sets for every pattern node.
CandidateSets ComputeCandidates(const Graph& g, const Pattern& q,
                                const MatchOptions& options = {});

/// Topic-seeded variant: pattern nodes carrying text predicates (string
/// equality / has_token) draw their candidate universe from the smallest
/// applicable posting list of `topics` instead of a label scan, then
/// re-verify exactly — the result is bit-identical to the plain overload.
/// `topics` may be nullptr (plain seeding; text nodes count as fallbacks).
/// `stats` may be nullptr.
CandidateSets ComputeCandidates(const Graph& g, const Pattern& q,
                                const MatchOptions& options,
                                const TopicIndex* topics, TopicSeedStats* stats);

/// Matcher entry point: resolves the topic index of the snapshot `ctx` is
/// bound to (building it when the deferred threshold is crossed) for
/// patterns with text predicates, seeds from postings, and accounts the
/// telemetry into `ctx`. `g` is the bound snapshot's graph; against any
/// other graph the text nodes scan. Falls back to the plain overload when
/// `ctx` is null, the index is disabled, or the pattern has no text
/// predicates — non-text queries never touch (or age) the slot.
CandidateSets ComputeCandidates(const Graph& g, const Pattern& q,
                                const MatchOptions& options, MatchContext* ctx);

}  // namespace expfinder

#endif  // EXPFINDER_MATCHING_CANDIDATES_H_
