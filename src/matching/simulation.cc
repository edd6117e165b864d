#include "src/matching/simulation.h"

#include "src/matching/bounded_simulation.h"
#include "src/util/logging.h"

namespace expfinder {

MatchRelation ComputeSimulation(const SnapshotPtr& s, const Pattern& q,
                                const MatchOptions& options, MatchContext* ctx) {
  return ComputeBoundedSimulation(s, q, options, ctx);
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
