#include "src/matching/result_graph.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/graph/csr.h"
#include "src/graph/khop_index.h"
#include "src/matching/match_context.h"
#include "src/util/dense_bitset.h"
#include "src/util/logging.h"

namespace expfinder {

namespace {

/// Marks a candidate the relation does not keep.
constexpr uint32_t kNoPosition = std::numeric_limits<uint32_t>::max();

}  // namespace

ResultGraph::ResultGraph(const Graph& g, const Pattern& q, const MatchRelation& m) {
  MatchContext ctx;
  ctx.BindSnapshot(GraphSnapshot::Capture(g));
  Scan(q, m, &ctx);
}

ResultGraph::ResultGraph(const SnapshotPtr& s, const Pattern& q,
                         const MatchRelation& m, MatchContext* ctx) {
  ctx->BindSnapshot(s);
  Scan(q, m, ctx);
}

ResultGraph::ResultGraph(const Pattern& q, const MatchRelation& m,
                         const SupportPairs& pairs) {
  CollectNodes(q, m);
  if (nodes_.empty() || q.NumEdges() == 0) return;
  EF_DCHECK(m.NumPatternNodes() == q.NumNodes() &&
            pairs.candidates.size() == q.NumNodes() &&
            pairs.edges.size() == q.NumEdges())
      << "support pairs of another pattern";
  // Per pattern node, the candidate index of each match and the result
  // position of each candidate (kNoPosition where m drops it): one merge of
  // the sorted candidate list with the sorted matches it keeps.
  std::vector<std::vector<uint32_t>> index_of(q.NumNodes()), pos(q.NumNodes());
  for (PatternNodeId u = 0; u < q.NumNodes(); ++u) {
    const auto& list = pairs.candidates[u];
    const auto& kept = m.MatchesOf(u);
    pos[u].assign(list.size(), kNoPosition);
    index_of[u].resize(kept.size());
    for (uint32_t i = 0, k = 0; i < list.size() && k < kept.size(); ++i) {
      if (list[i] != kept[k]) continue;
      pos[u][i] = matches_of_[u][k];
      index_of[u][k++] = i;
    }
  }
  Assemble(m, [&](PatternNodeId u, size_t k, auto& add) {
    for (uint32_t e : q.OutEdges(u)) {
      const auto& dst_pos = pos[q.edges()[e].dst];
      for (const SupportPairs::Pair& p : pairs.edges[e].Of(index_of[u][k])) {
        if (dst_pos[p.target] != kNoPosition) add(dst_pos[p.target], p.dist);
      }
    }
  });
}

void ResultGraph::CollectNodes(const Pattern& q, const MatchRelation& m) {
  // Union of matched data nodes, sorted and deduplicated.
  nodes_.reserve(m.TotalPairs());
  for (PatternNodeId u = 0; u < m.NumPatternNodes(); ++u) {
    const auto& list = m.MatchesOf(u);
    nodes_.insert(nodes_.end(), list.begin(), list.end());
  }
  std::sort(nodes_.begin(), nodes_.end());
  nodes_.erase(std::unique(nodes_.begin(), nodes_.end()), nodes_.end());

  matches_of_.resize(q.NumNodes());
  for (PatternNodeId u = 0; u < m.NumPatternNodes(); ++u) {
    auto it = nodes_.begin();
    matches_of_[u].reserve(m.MatchesOf(u).size());
    for (NodeId v : m.MatchesOf(u)) {
      it = std::lower_bound(it, nodes_.end(), v);  // the lists are sorted
      matches_of_[u].push_back(static_cast<uint32_t>(it - nodes_.begin()));
    }
  }
  out_.resize(nodes_.size());
  in_.resize(nodes_.size());
}

void ResultGraph::Scan(const Pattern& q, const MatchRelation& m, MatchContext* ctx) {
  CollectNodes(q, m);
  if (nodes_.empty() || q.NumEdges() == 0) return;

  // The bound snapshot's CSR and the context's buffers. The ball index is
  // strictly opportunistic: whatever the matchers warmed on the snapshot —
  // never built here.
  const GraphSnapshot& s = *ctx->bound_snapshot();
  const Graph& g = s.graph();
  const Csr& csr = s.csr();
  ctx->EnsureBuffers(1, g.NumNodes());
  BfsBuffers* buf = &ctx->Buffers(0);
  const KhopIndex* ball = s.CachedBallIndex();

  // O(1) membership tests for the BFS inner loop (binary-searching the match
  // lists per visited node dominated construction time on large graphs).
  DenseBitset member(q.NumNodes(), g.NumNodes());
  for (PatternNodeId u = 0; u < m.NumPatternNodes(); ++u) {
    for (NodeId v : m.MatchesOf(u)) member.Set(u, v);
  }
  // Dense node -> result-position map for the traversal loop: one array
  // read per recorded edge. Entries are only meaningful at matched nodes.
  std::vector<uint32_t> pos(g.NumNodes());
  for (uint32_t i = 0; i < nodes_.size(); ++i) pos[nodes_[i]] = i;
  // Hoisted per-out-edge state of each pattern node: bound + target
  // membership row.
  struct EdgeRef {
    Distance bound;
    DenseBitset::ConstRow dst_member;
  };
  std::vector<std::vector<EdgeRef>> erefs(q.NumNodes());
  for (PatternNodeId u = 0; u < q.NumNodes(); ++u) {
    for (uint32_t e : q.OutEdges(u)) {
      const PatternEdge& pe = q.edges()[e];
      erefs[u].push_back({pe.bound, member.Row(pe.dst)});
    }
  }
  // For every match, one bounded BFS up to its pattern node's largest
  // out-bound discovers all shortest distances to potential targets; an edge
  // is recorded when any pattern edge admits the visited target.
  Assemble(m, [&](PatternNodeId u, size_t k, auto& add) {
    if (erefs[u].empty()) return;
    VisitBall(ball, csr, m.MatchesOf(u)[k], q.MaxOutBound(u), buf, [&](NodeId w, Distance d) {
      for (const EdgeRef& er : erefs[u]) {
        if (d > er.bound || !er.dst_member[w]) continue;
        add(pos[w], d);
        break;
      }
    });
  });
}

template <typename Targets>
void ResultGraph::Assemble(const MatchRelation& m, Targets&& targets) {
  // Every derivation of the same edge carries the identical weight (the
  // shortest nonempty distance), so duplicates — a source matching several
  // pattern nodes, a target reached over several pattern edges — are
  // dropped by one sort+unique pass over the source's derivations.
  std::vector<std::pair<uint32_t, Distance>> found;
  auto add = [&found](uint32_t b, Distance d) { found.emplace_back(b, d); };
  std::vector<size_t> next(m.NumPatternNodes(), 0);  // each node's next match
  std::vector<uint32_t> in_deg(nodes_.size(), 0);
  for (uint32_t a = 0; a < nodes_.size(); ++a) {
    found.clear();
    for (PatternNodeId u = 0; u < m.NumPatternNodes(); ++u) {
      const auto& matches = m.MatchesOf(u);
      if (next[u] < matches.size() && matches[next[u]] == nodes_[a]) {
        targets(u, next[u]++, add);
      }
    }
    if (found.empty()) continue;
    std::sort(found.begin(), found.end());
    auto& out = out_[a];
    out.reserve(found.size());
    for (size_t i = 0; i < found.size(); ++i) {
      if (i > 0 && found[i].first == found[i - 1].first) continue;
      out.emplace_back(found[i].first, static_cast<double>(found[i].second));
      ++in_deg[found[i].first];
    }
    num_edges_ += out.size();
  }
  // Mirror into in_: iterating sources ascending appends ascending, so the
  // per-target lists come out sorted without a sort pass.
  for (uint32_t b = 0; b < nodes_.size(); ++b) in_[b].reserve(in_deg[b]);
  for (uint32_t a = 0; a < nodes_.size(); ++a) {
    for (const auto& [b, w] : out_[a]) in_[b].emplace_back(a, w);
  }
}

std::optional<uint32_t> ResultGraph::PositionOf(NodeId v) const {
  auto it = std::lower_bound(nodes_.begin(), nodes_.end(), v);
  if (it == nodes_.end() || *it != v) return std::nullopt;
  return static_cast<uint32_t>(it - nodes_.begin());
}

}  // namespace expfinder
