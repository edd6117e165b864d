#include "src/matching/candidates.h"

#include <algorithm>
#include <string>

#include "src/matching/match_context.h"
#include "src/util/logging.h"
#include "src/util/string_util.h"

namespace expfinder {

namespace {

/// `key OP <int>` answered from the key's int column: exactly
/// Condition::Eval on an int attribute, false when the node lacks it.
struct IntCond {
  const IntColumn* column;
  CmpOp op;
  int64_t rhs;

  bool Eval(NodeId v) const {
    if (!column->Present(v)) return false;
    const int64_t lhs = column->values[v];
    switch (op) {
      case CmpOp::kEq: return lhs == rhs;
      case CmpOp::kNe: return lhs != rhs;
      case CmpOp::kLt: return lhs < rhs;
      case CmpOp::kLe: return lhs <= rhs;
      case CmpOp::kGt: return lhs > rhs;
      default: return lhs >= rhs;  // kGe; Compile admits nothing else
    }
  }
};

/// True for the conditions an int column can answer: an equality or order
/// comparison of a named attribute against an int constant.
bool IsIntComparison(const Condition& cond) {
  if (cond.is_any_attr() || !cond.rhs().is_int()) return false;
  switch (cond.op()) {
    case CmpOp::kEq:
    case CmpOp::kNe:
    case CmpOp::kLt:
    case CmpOp::kLe:
    case CmpOp::kGt:
    case CmpOp::kGe:
      return true;
    case CmpOp::kContains:
    case CmpOp::kHasToken:
      return false;
  }
  return false;
}

/// The int columns of `g`'s content version when `q` has an int comparison
/// (built on first use), else nullptr: other patterns never build them.
const IntColumns* IntColumnsFor(const Graph& g, const Pattern& q) {
  const std::shared_ptr<TopicIndexSlot>& slot = g.topic_slot();
  if (slot == nullptr) return nullptr;  // a graph that never had content
  for (PatternNodeId u = 0; u < q.NumNodes(); ++u) {
    for (const Condition& cond : q.node(u).conditions) {
      if (IsIntComparison(cond)) return slot->IntColumnsFor(g);
    }
  }
  return nullptr;
}

struct CompiledNode {
  bool impossible = false;
  bool label_wildcard = false;
  LabelId label = kInvalidLabel;
  // Conditions answered from int columns.
  std::vector<IntCond> int_conds;
  // (resolved key, condition) pairs for everything else.
  std::vector<std::pair<AttrKeyId, const Condition*>> conds;
  // Any-attribute ("*") conditions, evaluated over every value of a node.
  std::vector<const Condition*> any_conds;
};

/// `columns` may be nullptr (every condition then keeps Condition::Eval).
CompiledNode Compile(const Graph& g, const PatternNode& n, const IntColumns* columns) {
  CompiledNode c;
  if (n.label.empty()) {
    c.label_wildcard = true;
  } else {
    auto lid = g.FindLabel(n.label);
    if (!lid) {
      c.impossible = true;  // label absent from graph: no candidates
      return c;
    }
    c.label = *lid;
  }
  for (const Condition& cond : n.conditions) {
    if (cond.is_any_attr()) {
      // "*" ranges over label + every attribute: it can match nodes even
      // when no attribute key does, so it never proves impossibility.
      c.any_conds.push_back(&cond);
      continue;
    }
    auto key = g.FindAttrKey(cond.attr());
    if (!key) {
      c.impossible = true;  // attribute key never set on any node
      return c;
    }
    const IntColumn* column =
        columns != nullptr && IsIntComparison(cond) ? columns->Find(*key) : nullptr;
    if (column != nullptr) {
      c.int_conds.push_back({column, cond.op(), cond.rhs().AsInt()});
      continue;
    }
    c.conds.emplace_back(*key, &cond);
  }
  return c;
}

bool Satisfies(const Graph& g, NodeId v, const CompiledNode& c) {
  if (!c.label_wildcard && g.label(v) != c.label) return false;
  for (const IntCond& ic : c.int_conds) {
    if (!ic.Eval(v)) return false;
  }
  for (const auto& [key, cond] : c.conds) {
    if (!cond->Eval(g.GetAttr(v, key))) return false;
  }
  for (const Condition* cond : c.any_conds) {
    if (!AnyAttrSatisfies(g, v, *cond)) return false;
  }
  return true;
}

/// Tokens every match of `n` must carry in its token set (see the soundness
/// contract in index/topic_index.h): the tokens of string constants under
/// kEq and kHasToken, named-attribute or any-attribute alike. kContains is
/// excluded — substrings cross token boundaries.
void AppendNecessaryTokens(const PatternNode& n, std::vector<std::string>* out) {
  for (const Condition& cond : n.conditions) {
    if (!cond.rhs().is_string()) continue;
    if (cond.op() != CmpOp::kEq && cond.op() != CmpOp::kHasToken) continue;
    AppendTopicTokens(cond.rhs().AsString(), out);
  }
}

/// `topics` may be nullptr (no index). Every candidate a posting list
/// proposes is re-verified by Satisfies, so the output is bit-identical to
/// the scan paths — ascending order included, since postings are ascending
/// like the label index.
CandidateSets ComputeCandidatesImpl(const Graph& g, const Pattern& q,
                                    const MatchOptions& options,
                                    const TopicIndex* topics, TopicSeedStats* stats) {
  const size_t n = g.NumNodes();
  const size_t nq = q.NumNodes();
  CandidateSets out;
  out.bitmap = DenseBitset(nq, n);
  out.list.resize(nq);
  std::vector<std::string> tokens;
  std::vector<NodeId> posting;
  const IntColumns* columns = IntColumnsFor(g, q);
  for (PatternNodeId u = 0; u < nq; ++u) {
    CompiledNode c = Compile(g, q.node(u), columns);
    if (c.impossible) continue;
    auto consider = [&](NodeId v) {
      if (Satisfies(g, v, c)) {
        out.bitmap.Set(u, v);
        out.list[u].push_back(v);
      }
    };
    tokens.clear();
    AppendNecessaryTokens(q.node(u), &tokens);
    const size_t scan_cost = (options.use_label_index && !c.label_wildcard)
                                 ? g.NodesWithLabel(c.label).size()
                                 : n;
    bool seeded = false;
    if (!tokens.empty() && topics != nullptr) {
      // A matching node must carry every necessary token, so any single
      // posting list is a sound universe — pick the rarest term.
      bool missing = false;
      uint32_t best_term = 0;
      size_t best_df = SIZE_MAX;
      for (const std::string& t : tokens) {
        auto term = topics->FindTerm(t);
        if (!term) {
          missing = true;  // token on no node: the set is provably empty
          break;
        }
        const size_t df = topics->DocFreq(*term);
        if (df < best_df) {
          best_df = df;
          best_term = *term;
        }
      }
      if (missing) {
        seeded = true;
        if (stats != nullptr) ++stats->posting_hits;
      } else if (best_df < scan_cost) {
        posting.clear();
        topics->AppendPostings(best_term, &posting);
        for (NodeId v : posting) consider(v);
        EF_DCHECK(std::is_sorted(out.list[u].begin(), out.list[u].end()));
        seeded = true;
        if (stats != nullptr) ++stats->posting_hits;
      } else if (stats != nullptr) {
        ++stats->seed_scan_fallbacks;  // the scan is no worse than the posting
      }
    } else if (!tokens.empty() && stats != nullptr) {
      ++stats->seed_scan_fallbacks;  // text predicates but no index available
    }
    if (seeded) continue;
    if (options.use_label_index && !c.label_wildcard) {
      // Graph::AddNode appends each new (dense, increasing) node id to its
      // label's index list, so NodesWithLabel is already ascending and the
      // candidate list inherits that order — no per-query re-sort needed.
      for (NodeId v : g.NodesWithLabel(c.label)) consider(v);
      EF_DCHECK(std::is_sorted(out.list[u].begin(), out.list[u].end()));
    } else {
      for (NodeId v = 0; v < n; ++v) consider(v);
    }
  }
  return out;
}

}  // namespace

CandidateSets ComputeCandidates(const Graph& g, const Pattern& q,
                                const MatchOptions& options) {
  return ComputeCandidatesImpl(g, q, options, nullptr, nullptr);
}

CandidateSets ComputeCandidates(const Graph& g, const Pattern& q,
                                const MatchOptions& options,
                                const TopicIndex* topics, TopicSeedStats* stats) {
  return ComputeCandidatesImpl(g, q, options, topics, stats);
}

CandidateSets ComputeCandidates(const Graph& g, const Pattern& q,
                                const MatchOptions& options, MatchContext* ctx) {
  if (ctx == nullptr || !options.topic_index.enabled || !HasTextPredicates(q)) {
    return ComputeCandidates(g, q, options);
  }
  const TopicIndex* topics = ctx->TopicIndexFor(g, options.topic_index);
  TopicSeedStats stats;
  CandidateSets out = ComputeCandidatesImpl(g, q, options, topics, &stats);
  ctx->AddTopicStats(stats.posting_hits, stats.seed_scan_fallbacks);
  return out;
}

}  // namespace expfinder
