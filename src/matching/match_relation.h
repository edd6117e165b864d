// M(Q,G): the (unique, maximum) match relation between pattern nodes and
// data nodes (paper §II, "Bounded simulation").
//
// Semantics note: bounded simulation requires (1) every pattern node to have
// at least one match and (2) every pair to have its edge constraints
// satisfied. The greatest fixpoint computed by the matchers satisfies (2)
// maximally; if it leaves any pattern node without matches, no relation
// satisfies both, so M(Q,G) is empty. MatchRelation models this: a relation
// where some-but-not-all lists are empty normalizes to the empty relation.

#ifndef EXPFINDER_MATCHING_MATCH_RELATION_H_
#define EXPFINDER_MATCHING_MATCH_RELATION_H_

#include <string>
#include <utility>
#include <vector>

#include "src/graph/graph.h"
#include "src/graph/types.h"
#include "src/query/pattern.h"
#include "src/util/dense_bitset.h"

namespace expfinder {

/// \brief The match relation M(Q,G): per pattern node, the sorted list of
/// matching data nodes.
class MatchRelation {
 public:
  MatchRelation() = default;
  explicit MatchRelation(size_t num_pattern_nodes) : matches_(num_pattern_nodes) {}

  /// Builds from a pattern-node x data-node membership bit matrix, applying
  /// the all-or-nothing normalization described above. Word-wise popcounts
  /// pre-size the lists and detect empty rows before any decoding.
  static MatchRelation FromBitmaps(const DenseBitset& in_mat);

  size_t NumPatternNodes() const { return matches_.size(); }

  /// Sorted matches of pattern node u.
  const std::vector<NodeId>& MatchesOf(PatternNodeId u) const { return matches_[u]; }

  /// Replaces u's matches (caller supplies sorted unique ids).
  void SetMatches(PatternNodeId u, std::vector<NodeId> nodes);

  /// Binary-search membership test.
  bool Contains(PatternNodeId u, NodeId v) const;

  /// True when the query has no valid match (every list empty).
  bool IsEmpty() const;

  /// Sum of list sizes.
  size_t TotalPairs() const;

  /// All (pattern node, data node) pairs, ordered.
  std::vector<std::pair<PatternNodeId, NodeId>> AllPairs() const;

  /// Empties every list (the "no match" normal form).
  void Clear();

  bool operator==(const MatchRelation& other) const { return matches_ == other.matches_; }

  /// Renders as {(SA,Bob), (SD,Mat), ...} using pattern/node display names.
  std::string ToString(const Pattern& q, const Graph& g) const;

 private:
  std::vector<std::vector<NodeId>> matches_;
};

/// \brief Matching semantics a query is evaluated and maintained under:
/// ComputeBoundedSimulation evaluates, and IncrementalBoundedSimulation
/// maintains, either.
enum class MatchSemantics {
  /// Bounded simulation — the paper's notion (bound-1 = plain simulation).
  kBoundedSimulation,
  /// Bounded *dual* simulation — parents must match too (extension; see
  /// bounded_simulation.h). Not servable from the compressed graph (the
  /// forward-bisimulation quotient does not preserve parent constraints),
  /// and a maintained query answers only reads of its own semantics
  /// (QueryCacheKey folds the semantics in).
  kDualSimulation,
};

/// \brief Net effect of an update batch on a maintained M(Q,G)
/// (Example 3: inserting e1 yields added = {(SD, Fred)}).
struct MatchDelta {
  std::vector<std::pair<PatternNodeId, NodeId>> added;
  std::vector<std::pair<PatternNodeId, NodeId>> removed;

  bool Empty() const { return added.empty() && removed.empty(); }
};

}  // namespace expfinder

#endif  // EXPFINDER_MATCHING_MATCH_RELATION_H_
