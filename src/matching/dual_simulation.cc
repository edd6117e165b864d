#include "src/matching/dual_simulation.h"

#include "src/graph/shortest_paths.h"
#include "src/matching/bounded_simulation.h"

namespace expfinder {

MatchRelation ComputeDualSimulation(const SnapshotPtr& s, const Pattern& q,
                                    const MatchOptions& options, MatchContext* ctx) {
  return ComputeBoundedSimulation(s, q, options, ctx, MatchSemantics::kDualSimulation);
}

MatchRelation ComputeDualSimulationNaive(const Graph& g, const Pattern& q) {
  const size_t n = g.NumNodes();
  const size_t nq = q.NumNodes();
  DistanceMatrix dist(g, q.MaxBound() == kUnboundedEdge
                             ? static_cast<Distance>(n)
                             : q.MaxBound());
  CandidateSets cand = ComputeCandidates(g, q);
  DenseBitset mat = cand.bitmap;

  bool changed = true;
  while (changed) {
    changed = false;
    for (PatternNodeId u = 0; u < nq; ++u) {
      for (NodeId v = 0; v < n; ++v) {
        if (!mat.Test(u, v)) continue;
        bool ok = true;
        for (uint32_t e : q.OutEdges(u) /* child constraints */) {
          const PatternEdge& pe = q.edges()[e];
          bool supported = false;
          for (NodeId w = 0; w < n && !supported; ++w) {
            supported = mat.Test(pe.dst, w) && dist.At(v, w) != kUnreachable &&
                        dist.At(v, w) <= pe.bound;
          }
          if (!supported) {
            ok = false;
            break;
          }
        }
        for (uint32_t e : q.InEdges(u) /* parent constraints */) {
          if (!ok) break;
          const PatternEdge& pe = q.edges()[e];
          bool supported = false;
          for (NodeId w = 0; w < n && !supported; ++w) {
            supported = mat.Test(pe.src, w) && dist.At(w, v) != kUnreachable &&
                        dist.At(w, v) <= pe.bound;
          }
          if (!supported) ok = false;
        }
        if (!ok) {
          mat.Reset(u, v);
          changed = true;
        }
      }
    }
  }
  return MatchRelation::FromBitmaps(mat);
}

}  // namespace expfinder
