#include "src/matching/result_graph.h"

#include <algorithm>

#include "src/graph/bfs.h"
#include "src/graph/csr.h"
#include "src/graph/khop_index.h"
#include "src/matching/match_context.h"
#include "src/util/dense_bitset.h"

namespace expfinder {

ResultGraph::ResultGraph(const Graph& g, const Pattern& q, const MatchRelation& m) {
  MatchContext ctx;
  ctx.BindSnapshot(GraphSnapshot::Capture(g));
  Build(q, m, &ctx);
}

ResultGraph::ResultGraph(const SnapshotPtr& s, const Pattern& q,
                         const MatchRelation& m, MatchContext* ctx) {
  ctx->BindSnapshot(s);
  Build(q, m, ctx);
}

void ResultGraph::Build(const Pattern& q, const MatchRelation& m, MatchContext* ctx) {
  const GraphSnapshot& s = *ctx->bound_snapshot();
  const Graph& g = s.graph();
  // Union of matched data nodes, sorted and deduplicated.
  for (PatternNodeId u = 0; u < m.NumPatternNodes(); ++u) {
    const auto& list = m.MatchesOf(u);
    nodes_.insert(nodes_.end(), list.begin(), list.end());
  }
  std::sort(nodes_.begin(), nodes_.end());
  nodes_.erase(std::unique(nodes_.begin(), nodes_.end()), nodes_.end());
  index_.reserve(nodes_.size() * 2);
  for (uint32_t i = 0; i < nodes_.size(); ++i) index_.emplace(nodes_[i], i);

  matches_of_.resize(q.NumNodes());
  for (PatternNodeId u = 0; u < m.NumPatternNodes(); ++u) {
    for (NodeId v : m.MatchesOf(u)) matches_of_[u].push_back(index_.at(v));
  }

  out_.resize(nodes_.size());
  in_.resize(nodes_.size());
  if (nodes_.empty() || q.NumEdges() == 0) return;

  // The bound snapshot's CSR and the context's buffers. The ball index is
  // strictly opportunistic: whatever the matchers warmed on the snapshot —
  // never built here.
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
  // read per recorded edge instead of a hash probe (index_ stays for the
  // PositionOf API). Entries are only meaningful at matched nodes.
  std::vector<uint32_t> pos(g.NumNodes());
  for (uint32_t i = 0; i < nodes_.size(); ++i) pos[nodes_[i]] = i;

  // For every source match, one bounded BFS up to the node's largest
  // out-bound discovers all shortest distances to potential targets; an edge
  // is recorded when any pattern edge admits the visited target. Every
  // derivation of the same (v, v') carries the identical weight — the BFS
  // visits each target once at its shortest nonempty distance — so
  // duplicates (same source matching several pattern nodes) are eliminated
  // by one sort+unique pass instead of a per-visit hash probe.
  struct RawEdge {
    uint64_t key;  // (src pos << 32) | dst pos — sorts into adjacency order
    double weight;
    bool operator<(const RawEdge& other) const { return key < other.key; }
  };
  std::vector<RawEdge> raw;
  for (PatternNodeId u = 0; u < q.NumNodes(); ++u) {
    const auto& out_edges = q.OutEdges(u);
    if (out_edges.empty()) continue;
    Distance depth = q.MaxOutBound(u);
    const bool indexed = ball != nullptr && depth <= ball->depth();
    // Hoisted per-edge state: bound + target membership row.
    struct EdgeRef {
      Distance bound;
      DenseBitset::ConstRow dst_member;
    };
    std::vector<EdgeRef> erefs;
    erefs.reserve(out_edges.size());
    for (uint32_t e : out_edges) {
      const PatternEdge& pe = q.edges()[e];
      erefs.push_back({pe.bound, member.Row(pe.dst)});
    }
    auto record = [&](uint64_t vkey, NodeId w, Distance d) {
      for (const EdgeRef& er : erefs) {
        if (d > er.bound || !er.dst_member[w]) continue;
        raw.push_back({vkey | pos[w], static_cast<double>(d)});
        break;
      }
    };
    for (NodeId v : m.MatchesOf(u)) {
      uint64_t vkey = static_cast<uint64_t>(pos[v]) << 32;
      if (indexed && ball->HasOut(v)) {
        // Same visit set as the BFS, at its shortest nonempty distance.
        for (Distance d = 1; d <= depth; ++d) {
          for (NodeId w : ball->StratumOut(v, d)) record(vkey, w, d);
        }
      } else {
        BoundedBfsNonEmpty<true>(csr, v, depth, buf,
                                 [&](NodeId w, Distance d) { record(vkey, w, d); });
      }
    }
  }
  // Counting-sort by source position instead of one global sort: buckets
  // hold a handful of targets each (the result out-degree), so the
  // per-bucket sorts are effectively linear, and exact reserves kill the
  // realloc churn of growing ten thousand small adjacency vectors.
  const size_t nn = nodes_.size();
  std::vector<uint32_t> bucket_off(nn + 1, 0);
  for (const RawEdge& e : raw) ++bucket_off[(e.key >> 32) + 1];
  for (size_t i = 0; i < nn; ++i) bucket_off[i + 1] += bucket_off[i];
  std::vector<RawEdge> bucketed(raw.size());
  {
    std::vector<uint32_t> cursor(bucket_off.begin(), bucket_off.end() - 1);
    for (const RawEdge& e : raw) bucketed[cursor[e.key >> 32]++] = e;
  }
  std::vector<uint32_t> in_deg(nn, 0);
  for (uint32_t a = 0; a < nn; ++a) {
    auto begin = bucketed.begin() + bucket_off[a];
    auto end = bucketed.begin() + bucket_off[a + 1];
    if (begin == end) continue;
    std::sort(begin, end);  // keys share the high word, so this sorts by b
    auto& out_list = out_[a];
    out_list.reserve(static_cast<size_t>(end - begin));
    uint64_t prev_key = ~uint64_t{0};
    for (auto it = begin; it != end; ++it) {
      if (it->key == prev_key) continue;  // duplicate derivation, same weight
      prev_key = it->key;
      uint32_t b = static_cast<uint32_t>(it->key);
      out_list.emplace_back(b, it->weight);
      ++in_deg[b];
      ++num_edges_;
    }
  }
  // Mirror into in_: iterating sources ascending appends ascending, so the
  // per-target lists come out sorted without a sort pass.
  for (uint32_t b = 0; b < nn; ++b) in_[b].reserve(in_deg[b]);
  for (uint32_t a = 0; a < nn; ++a) {
    for (const auto& [b, w] : out_[a]) in_[b].emplace_back(a, w);
  }
}

std::optional<uint32_t> ResultGraph::PositionOf(NodeId v) const {
  auto it = index_.find(v);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

}  // namespace expfinder
