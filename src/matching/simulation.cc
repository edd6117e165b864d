#include "src/matching/simulation.h"

#include <deque>

#include "src/matching/match_context.h"
#include "src/util/logging.h"

namespace expfinder {

MatchRelation ComputeSimulation(const SnapshotPtr& s, const Pattern& q,
                                const MatchOptions& options, MatchContext* ctx) {
  EF_CHECK(q.IsSimulationPattern())
      << "ComputeSimulation requires all bounds == 1; use bounded simulation";
  ctx->BindSnapshot(s);
  const Graph& g = s->graph();
  const size_t n = g.NumNodes();
  const size_t ne = q.NumEdges();

  CandidateSets cand = ComputeCandidates(g, q, options, ctx);
  DenseBitset mat = cand.bitmap;  // in-relation bit matrix
  auto& cnt = ctx->Counters(0, ne, n);
  // Walk the snapshot's CSR, not the Graph's paged adjacency lists:
  // contiguous, and built once at publish, so a serving read builds nothing.
  const Csr& csr = s->csr();

  // Pending invalidated pairs.
  std::deque<std::pair<PatternNodeId, NodeId>> worklist;

  // Seed counters against the initial (candidate) sets.
  for (uint32_t e = 0; e < ne; ++e) {
    const PatternEdge& pe = q.edges()[e];
    const auto dst_mat = mat.Row(pe.dst);
    for (NodeId v : cand.list[pe.src]) {
      int32_t c = 0;
      for (NodeId w : csr.Out(v)) c += dst_mat[w];
      cnt[e][v] = c;
      if (c == 0) worklist.emplace_back(pe.src, v);
    }
  }

  while (!worklist.empty()) {
    auto [u, v] = worklist.front();
    worklist.pop_front();
    if (!mat.Test(u, v)) continue;
    mat.Reset(u, v);
    // v no longer matches u: decrement support of predecessors along every
    // pattern edge ending in u.
    for (uint32_t e : q.InEdges(u)) {
      const PatternEdge& pe = q.edges()[e];
      auto& counters = cnt[e];
      const auto src_mat = mat.Row(pe.src);
      for (NodeId w : csr.In(v)) {
        if (--counters[w] == 0 && src_mat[w]) {
          worklist.emplace_back(pe.src, w);
        }
      }
    }
  }
  return MatchRelation::FromBitmaps(mat);
}

MatchRelation ComputeSimulation(const Graph& g, const Pattern& q,
                                const MatchOptions& options) {
  MatchContext ctx;
  return ComputeSimulation(GraphSnapshot::Capture(g), q, options, &ctx);
}

MatchRelation ComputeSimulationNaive(const Graph& g, const Pattern& q) {
  EF_CHECK(q.IsSimulationPattern());
  const size_t nq = q.NumNodes();
  CandidateSets cand = ComputeCandidates(g, q);
  DenseBitset mat = cand.bitmap;

  bool changed = true;
  while (changed) {
    changed = false;
    for (PatternNodeId u = 0; u < nq; ++u) {
      for (NodeId v = 0; v < g.NumNodes(); ++v) {
        if (!mat.Test(u, v)) continue;
        for (uint32_t e : q.OutEdges(u)) {
          const PatternEdge& pe = q.edges()[e];
          bool supported = false;
          for (NodeId w : g.OutNeighbors(v)) {
            if (mat.Test(pe.dst, w)) {
              supported = true;
              break;
            }
          }
          if (!supported) {
            mat.Reset(u, v);
            changed = true;
            break;
          }
        }
      }
    }
  }
  return MatchRelation::FromBitmaps(mat);
}

}  // namespace expfinder
