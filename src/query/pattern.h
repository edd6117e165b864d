// Pattern queries for (bounded) simulation matching (paper Fig. 1(a)).
//
// A Pattern is a small directed graph: nodes carry a label requirement plus
// search conditions; edges carry an upper bound on the length of the data
// path they may map to (1 = classic graph simulation edge; kUnboundedEdge =
// plain reachability). One node is designated the *output node* — the
// experts the user wants returned (SA* in the paper).

#ifndef EXPFINDER_QUERY_PATTERN_H_
#define EXPFINDER_QUERY_PATTERN_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/graph/graph.h"
#include "src/graph/types.h"
#include "src/query/condition.h"
#include "src/util/result.h"
#include "src/util/status.h"

namespace expfinder {

/// Edge bound meaning "any nonempty path" (reachability semantics).
inline constexpr Distance kUnboundedEdge = kUnreachable;

/// Index of a node within a Pattern.
using PatternNodeId = uint32_t;

/// \brief One query node: variable name (for the text format), label
/// requirement (empty = wildcard), and a conjunction of search conditions.
struct PatternNode {
  std::string name;
  std::string label;
  std::vector<Condition> conditions;

  /// True iff data node `v` of `g` satisfies label + all conditions.
  bool Matches(const Graph& g, NodeId v) const;
};

/// \brief One query edge with its path-length bound (>= 1).
struct PatternEdge {
  PatternNodeId src = 0;
  PatternNodeId dst = 0;
  Distance bound = 1;
};

/// \brief A bounded-simulation pattern query.
class Pattern {
 public:
  /// Adds a node; `name` must be unique and nonempty.
  Result<PatternNodeId> AddNode(PatternNode node);

  /// Adds an edge; endpoints must exist, bound >= 1, duplicate (src,dst)
  /// pairs are rejected.
  Status AddEdge(PatternNodeId src, PatternNodeId dst, Distance bound = 1);

  /// Marks the output node (must exist).
  Status SetOutput(PatternNodeId u);

  size_t NumNodes() const { return nodes_.size(); }
  size_t NumEdges() const { return edges_.size(); }
  const PatternNode& node(PatternNodeId u) const { return nodes_[u]; }
  /// Mutable access for builders (conditions may be appended after AddNode).
  PatternNode* mutable_node(PatternNodeId u) { return &nodes_[u]; }
  const std::vector<PatternNode>& nodes() const { return nodes_; }
  const std::vector<PatternEdge>& edges() const { return edges_; }

  /// Indices into edges() of u's outgoing / incoming pattern edges.
  const std::vector<uint32_t>& OutEdges(PatternNodeId u) const { return out_[u]; }
  const std::vector<uint32_t>& InEdges(PatternNodeId u) const { return in_[u]; }

  /// The designated output node, if set.
  std::optional<PatternNodeId> output_node() const { return output_; }

  /// Index of the node with the given variable name.
  std::optional<PatternNodeId> FindNode(std::string_view name) const;

  /// Largest bound over u's out-edges (BFS depth needed from u's matches);
  /// 0 when u has none.
  Distance MaxOutBound(PatternNodeId u) const;

  /// Largest bound over all edges; 0 for edge-less patterns.
  Distance MaxBound() const;

  /// Largest *finite* bound over all edges (kUnboundedEdge reachability
  /// edges are skipped); 0 when every edge is unbounded or there are none.
  /// This is the depth the ball index needs to serve every bounded edge.
  Distance MaxFiniteBound() const;

  /// True when every edge bound is exactly 1 (plain graph simulation).
  bool IsSimulationPattern() const;

  /// Structural sanity: >= 1 node, output set. (Add/Set already enforce the
  /// rest.)
  Status Validate() const;

  /// Canonical text rendering (identical to the pattern file format).
  std::string ToText() const;

  /// Hash of a *canonicalized* rendering: per-node conditions are sorted
  /// (and exact duplicates dropped) before hashing — sound because a node's
  /// conditions are a conjunction, so order and repetition never change
  /// which data nodes match. This is the cache identity (QueryCacheKey):
  /// a pattern compiled from free-text topic_terms (which appends sorted
  /// `has_token` conditions) shares cache lines with an equivalent explicit
  /// pattern whose author wrote the same conditions in any order. Node
  /// order, names, and edge order still distinguish patterns — only
  /// condition order within a node is canonicalized.
  uint64_t CanonicalFingerprint() const;

 private:
  /// The text ToText returns, or with `canonical` the text
  /// CanonicalFingerprint hashes: its own header line and each node's
  /// conditions sorted and deduplicated.
  std::string Render(bool canonical) const;

  std::vector<PatternNode> nodes_;
  std::vector<PatternEdge> edges_;
  std::vector<std::vector<uint32_t>> out_, in_;
  std::optional<PatternNodeId> output_;
};

/// \brief Fluent construction helper.
///
///   PatternBuilder b;
///   auto sa = b.Node("SA").Where("experience", CmpOp::kGe, 5).Output();
///   auto sd = b.Node("SD").Where("experience", CmpOp::kGe, 2);
///   b.Edge(sa, sd, 2);
///   Pattern q = b.Build().value();
class PatternBuilder {
 public:
  class NodeRef {
   public:
    NodeRef& Where(std::string attr, CmpOp op, AttrValue rhs);
    NodeRef& Output();
    PatternNodeId index() const { return index_; }

   private:
    friend class PatternBuilder;
    NodeRef(PatternBuilder* b, PatternNodeId i) : builder_(b), index_(i) {}
    PatternBuilder* builder_;
    PatternNodeId index_;
  };

  /// Adds a node with the given label (empty = wildcard). `name` defaults to
  /// "n<i>".
  NodeRef Node(std::string_view label, std::string_view name = "");

  /// Adds an edge with the given bound (kUnboundedEdge for reachability).
  PatternBuilder& Edge(const NodeRef& src, const NodeRef& dst, Distance bound = 1);

  /// Validates and returns the pattern; reports the first accumulated error.
  Result<Pattern> Build();

 private:
  Pattern pattern_;
  Status first_error_;
};

}  // namespace expfinder

#endif  // EXPFINDER_QUERY_PATTERN_H_
