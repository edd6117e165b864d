#include "src/matching/bounded_simulation.h"

#include <algorithm>

#include "src/graph/csr.h"
#include "src/graph/khop_index.h"
#include "src/graph/shortest_paths.h"
#include "src/matching/match_context.h"
#include "src/util/flat_queue.h"

namespace expfinder {

namespace {

/// Hoisted per-pattern-edge seeding state: the bound, the mat row of the
/// edge's other endpoint, and the counter array the seeded node owns.
struct EdgeRef {
  Distance bound;
  DenseBitset::ConstRow other_mat;
  int32_t* cnt;
};

}  // namespace

MatchRelation ComputeBoundedSimulation(const SnapshotPtr& s, const Pattern& q,
                                       const MatchOptions& options, MatchContext* ctx,
                                       MatchSemantics semantics) {
  ctx->BindSnapshot(s);
  const Graph& g = s->graph();
  const size_t n = g.NumNodes();
  const size_t ne = q.NumEdges();
  const bool dual = semantics == MatchSemantics::kDualSimulation;

  CandidateSets cand = ComputeCandidates(g, q, options, ctx);
  DenseBitset mat = cand.bitmap;
  // fwd[e] counts each source candidate's supporters; bwd[e] (dual only)
  // counts each target candidate's (see the header).
  auto& fwd = ctx->Counters(0, ne, n);
  std::vector<std::vector<int32_t>>* bwd = dual ? &ctx->Counters(1, ne, n) : nullptr;

  const Csr& csr = s->csr();
  // One ball index at the pattern's largest finite bound serves every
  // bounded edge: a shallower ball is a prefix of the deeper one. BFS
  // remains the path for unbounded (reachability) edges, depths beyond the
  // index, overflowed hubs, and budget-refused builds — all of which must
  // reproduce the index path bit for bit.
  const KhopIndex* ball =
      ctx->BallIndexFor(q.MaxFiniteBound(), options.ball_index, options.num_threads);
  const bool count_fallbacks = options.ball_index.enabled;
  size_t ball_hits = 0;
  size_t bfs_fallbacks = 0;
  // Counts one traversal as served by the ball or, when the index was
  // requested, as a BFS fallback.
  auto tally = [count_fallbacks](bool served, size_t* hits, size_t* falls) {
    if (served) {
      ++*hits;
    } else if (count_fallbacks) {
      ++*falls;
    }
  };
  FlatQueue<std::pair<PatternNodeId, NodeId>> worklist;

  // Seed: fwd[e=(u,u')][v] = |{w in BallOut(v, bound(e)) : w in mat(u')}|,
  // one stratified scan of each candidate's forward ball up to u's largest
  // out-bound, and under dual semantics bwd likewise over its reverse ball
  // up to u's largest in-bound.
  //
  // This phase is embarrassingly parallel: mat is read-only, the counters
  // of candidate v are written only for v, and each worker owns a disjoint
  // contiguous slice of cand.list[u]. Per-worker dead lists are appended in
  // worker order afterwards, so the worklist — and therefore the whole
  // fixpoint — is bit-for-bit identical to the serial pass.
  for (PatternNodeId u = 0; u < q.NumNodes(); ++u) {
    std::vector<EdgeRef> out_refs, in_refs;
    Distance out_depth = 0, in_depth = 0;
    for (uint32_t e : q.OutEdges(u)) {
      const PatternEdge& pe = q.edges()[e];
      out_refs.push_back({pe.bound, mat.Row(pe.dst), fwd[e].data()});
      out_depth = std::max(out_depth, pe.bound);
    }
    if (dual) {
      for (uint32_t e : q.InEdges(u)) {
        const PatternEdge& pe = q.edges()[e];
        in_refs.push_back({pe.bound, mat.Row(pe.src), (*bwd)[e].data()});
        in_depth = std::max(in_depth, pe.bound);
      }
    }
    if (out_refs.empty() && in_refs.empty()) continue;
    const auto& list = cand.list[u];
    auto seed_slice = [&](size_t worker, size_t begin, size_t end,
                          std::vector<NodeId>* dead, size_t* hits, size_t* falls) {
      BfsBuffers& buf = ctx->Buffers(worker);
      for (size_t i = begin; i < end; ++i) {
        const NodeId v = list[i];
        auto count = [v](const std::vector<EdgeRef>& refs) {
          return [&refs, v](NodeId w, Distance d) {
            for (const EdgeRef& er : refs) {
              if (d <= er.bound && er.other_mat[w]) ++er.cnt[v];
            }
          };
        };
        if (!out_refs.empty()) {
          tally(VisitBall<true>(ball, csr, v, out_depth, &buf, count(out_refs)), hits,
                falls);
        }
        if (!in_refs.empty()) {
          tally(VisitBall<false>(ball, csr, v, in_depth, &buf, count(in_refs)), hits,
                falls);
        }
        auto unsupported = [v](const EdgeRef& er) { return er.cnt[v] == 0; };
        if (std::any_of(out_refs.begin(), out_refs.end(), unsupported) ||
            std::any_of(in_refs.begin(), in_refs.end(), unsupported)) {
          dead->push_back(v);
        }
      }
    };
    const size_t workers = ctx->SeedWorkers(options.num_threads, list.size());
    ctx->EnsureBuffers(workers, n);
    if (workers <= 1) {
      std::vector<NodeId> dead;
      seed_slice(0, 0, list.size(), &dead, &ball_hits, &bfs_fallbacks);
      for (NodeId v : dead) worklist.emplace_back(u, v);
    } else {
      std::vector<std::vector<NodeId>> dead(workers);
      std::vector<size_t> hits(workers, 0), falls(workers, 0);
      ctx->Pool(workers).ParallelChunks(
          list.size(), workers, [&](size_t worker, size_t begin, size_t end) {
            seed_slice(worker, begin, end, &dead[worker], &hits[worker],
                       &falls[worker]);
          });
      for (size_t w = 0; w < workers; ++w) {
        ball_hits += hits[w];
        bfs_fallbacks += falls[w];
        for (NodeId v : dead[w]) worklist.emplace_back(u, v);
      }
    }
  }

  // Refinement stays sequential: the cascade order defines the worklist
  // contents, and determinism is part of the matcher's contract. Each
  // popped dead pair decrements its supporters over its precomputed balls
  // instead of launching BFSes where the index covers it.
  // Seeding sized the buffers only if some pattern node has edges.
  ctx->EnsureBuffers(1, n);
  BfsBuffers& buf = ctx->Buffers(0);
  while (!worklist.empty()) {
    auto [u, v] = worklist.front();
    worklist.pop_front();
    if (!mat.Test(u, v)) continue;
    mat.Reset(u, v);
    // Every node that could see v within bound(e) loses one supporter...
    for (uint32_t e : q.InEdges(u)) {
      const PatternEdge& pe = q.edges()[e];
      int32_t* counters = fwd[e].data();
      const auto src_mat = mat.Row(pe.src);
      tally(VisitBall<false>(ball, csr, v, pe.bound, &buf,
                             [&](NodeId w, Distance) {
                               if (--counters[w] == 0 && src_mat[w]) {
                                 worklist.emplace_back(pe.src, w);
                               }
                             }),
            &ball_hits, &bfs_fallbacks);
    }
    if (!dual) continue;
    // ...and under dual semantics, so does every node v could see.
    for (uint32_t e : q.OutEdges(u)) {
      const PatternEdge& pe = q.edges()[e];
      int32_t* counters = (*bwd)[e].data();
      const auto dst_mat = mat.Row(pe.dst);
      tally(VisitBall<true>(ball, csr, v, pe.bound, &buf,
                            [&](NodeId w, Distance) {
                              if (--counters[w] == 0 && dst_mat[w]) {
                                worklist.emplace_back(pe.dst, w);
                              }
                            }),
            &ball_hits, &bfs_fallbacks);
    }
  }
  ctx->AddBallStats(ball_hits, bfs_fallbacks);
  return MatchRelation::FromBitmaps(mat);
}

MatchRelation ComputeBoundedSimulation(const Graph& g, const Pattern& q,
                                       const MatchOptions& options,
                                       MatchSemantics semantics) {
  MatchContext ctx;
  return ComputeBoundedSimulation(GraphSnapshot::Capture(g), q, options, &ctx, semantics);
}

MatchRelation ComputeBoundedSimulationNaive(const Graph& g, const Pattern& q) {
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
        for (uint32_t e : q.OutEdges(u)) {
          const PatternEdge& pe = q.edges()[e];
          bool supported = false;
          for (NodeId w = 0; w < n && !supported; ++w) {
            supported = mat.Test(pe.dst, w) && dist.At(v, w) != kUnreachable &&
                        dist.At(v, w) <= pe.bound;
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
