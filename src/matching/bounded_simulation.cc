#include "src/matching/bounded_simulation.h"

#include "src/graph/bfs.h"
#include "src/graph/csr.h"
#include "src/graph/khop_index.h"
#include "src/graph/shortest_paths.h"
#include "src/matching/match_context.h"
#include "src/util/flat_queue.h"
#include "src/util/logging.h"

namespace expfinder {

MatchRelation ComputeBoundedSimulation(const SnapshotPtr& s, const Pattern& q,
                                       const MatchOptions& options, MatchContext* ctx) {
  ctx->BindSnapshot(s);
  const Graph& g = s->graph();
  const size_t n = g.NumNodes();
  const size_t ne = q.NumEdges();

  CandidateSets cand = ComputeCandidates(g, q, options, ctx);
  DenseBitset mat = cand.bitmap;
  auto& cnt = ctx->Counters(0, ne, n);

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
  FlatQueue<std::pair<PatternNodeId, NodeId>> worklist;

  // Seed: cnt[e=(u,u')][v] = |{w in BallOut(v, bound(e)) : w in mat(u')}|,
  // one flat stratified ball scan per candidate (or one forward bounded BFS
  // on the fallback path, visiting the exact same (w, d) set).
  //
  // This phase is embarrassingly parallel: mat is read-only, cnt[e][v] is
  // written only for the candidate v, and each worker owns a disjoint
  // contiguous slice of cand.list[u]. Per-worker dead lists are appended in
  // worker order afterwards, so the worklist — and therefore the whole
  // fixpoint — is bit-for-bit identical to the serial pass.
  for (PatternNodeId u = 0; u < q.NumNodes(); ++u) {
    const auto& out_edges = q.OutEdges(u);
    if (out_edges.empty()) continue;
    Distance depth = q.MaxOutBound(u);
    const bool indexed = ball != nullptr && depth <= ball->depth();
    const auto& list = cand.list[u];
    // Hoisted per-edge state: bound, target-row view, counter base pointer.
    struct EdgeRef {
      Distance bound;
      DenseBitset::ConstRow dst_mat;
      int32_t* cnt;
    };
    std::vector<EdgeRef> erefs;
    erefs.reserve(out_edges.size());
    for (uint32_t e : out_edges) {
      const PatternEdge& pe = q.edges()[e];
      erefs.push_back({pe.bound, mat.Row(pe.dst), cnt[e].data()});
    }
    auto seed_slice = [&](size_t worker, size_t begin, size_t end,
                          std::vector<NodeId>* dead, size_t* hits, size_t* falls) {
      BfsBuffers& buf = ctx->Buffers(worker);
      for (size_t i = begin; i < end; ++i) {
        NodeId v = list[i];
        if (indexed && ball->HasOut(v)) {
          ++*hits;
          for (Distance d = 1; d <= depth; ++d) {
            for (NodeId w : ball->StratumOut(v, d)) {
              for (const EdgeRef& er : erefs) {
                if (d <= er.bound && er.dst_mat[w]) ++er.cnt[v];
              }
            }
          }
        } else {
          if (count_fallbacks) ++*falls;
          BoundedBfsNonEmpty<true>(csr, v, depth, &buf, [&](NodeId w, Distance d) {
            for (const EdgeRef& er : erefs) {
              if (d <= er.bound && er.dst_mat[w]) ++er.cnt[v];
            }
          });
        }
        for (const EdgeRef& er : erefs) {
          if (er.cnt[v] == 0) {
            dead->push_back(v);
            break;
          }
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
  // popped dead pair decrements its supporters over the precomputed reverse
  // ball instead of launching a reverse BFS.
  // Seeding sized the buffers only if some pattern node has out-edges.
  ctx->EnsureBuffers(1, n);
  BfsBuffers& buf = ctx->Buffers(0);
  while (!worklist.empty()) {
    auto [u, v] = worklist.front();
    worklist.pop_front();
    if (!mat.Test(u, v)) continue;
    mat.Reset(u, v);
    // Every node that could see v within bound(e) loses one supporter.
    for (uint32_t e : q.InEdges(u)) {
      const PatternEdge& pe = q.edges()[e];
      auto& counters = cnt[e];
      const auto src_mat = mat.Row(pe.src);
      if (ball != nullptr && pe.bound <= ball->depth() && ball->HasIn(v)) {
        ++ball_hits;
        for (NodeId w : ball->BallIn(v, pe.bound)) {
          if (--counters[w] == 0 && src_mat[w]) {
            worklist.emplace_back(pe.src, w);
          }
        }
      } else {
        if (count_fallbacks) ++bfs_fallbacks;
        BoundedBfsNonEmpty<false>(csr, v, pe.bound, &buf, [&](NodeId w, Distance) {
          if (--counters[w] == 0 && src_mat[w]) {
            worklist.emplace_back(pe.src, w);
          }
        });
      }
    }
  }
  ctx->AddBallStats(ball_hits, bfs_fallbacks);
  return MatchRelation::FromBitmaps(mat);
}

MatchRelation ComputeBoundedSimulation(const Graph& g, const Pattern& q,
                                       const MatchOptions& options) {
  MatchContext ctx;
  return ComputeBoundedSimulation(GraphSnapshot::Capture(g), q, options, &ctx);
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
