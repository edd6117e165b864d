#include "src/matching/dual_simulation.h"

#include "src/graph/bfs.h"
#include "src/graph/csr.h"
#include "src/graph/khop_index.h"
#include "src/graph/shortest_paths.h"
#include "src/matching/match_context.h"
#include "src/util/flat_queue.h"
#include "src/util/logging.h"

namespace expfinder {

namespace {

/// Hoisted per-pattern-edge seeding state (see bounded_simulation.cc).
struct EdgeRef {
  Distance bound;
  DenseBitset::ConstRow other_mat;  // mat row of the edge's other endpoint
  int32_t* cnt;
};

}  // namespace

MatchRelation ComputeDualSimulation(const SnapshotPtr& s, const Pattern& q,
                                    const MatchOptions& options, MatchContext* ctx) {
  ctx->BindSnapshot(s);
  const Graph& g = s->graph();
  const size_t n = g.NumNodes();
  const size_t ne = q.NumEdges();

  CandidateSets cand = ComputeCandidates(g, q, options, ctx);
  DenseBitset mat = cand.bitmap;
  // Two counter families per pattern edge e = (u,u'):
  //   fwd[e][v]  = |{v' in mat(u') : 0 < dist(v,v')  <= bound}|  (v cand of u)
  //   bwd[e][v'] = |{v  in mat(u)  : 0 < dist(v,v')  <= bound}|  (v' cand of u')
  auto& fwd = ctx->Counters(0, ne, n);
  auto& bwd = ctx->Counters(1, ne, n);

  const Csr& csr = s->csr();
  const KhopIndex* ball =
      ctx->BallIndexFor(q.MaxFiniteBound(), options.ball_index, options.num_threads);
  const bool count_fallbacks = options.ball_index.enabled;
  size_t ball_hits = 0;
  size_t bfs_fallbacks = 0;
  FlatQueue<std::pair<PatternNodeId, NodeId>> worklist;

  auto dead = [&](PatternNodeId u, NodeId v) {
    for (uint32_t e : q.OutEdges(u)) {
      if (fwd[e][v] == 0) return true;
    }
    for (uint32_t e : q.InEdges(u)) {
      if (bwd[e][v] == 0) return true;
    }
    return false;
  };

  // Largest bound over u's in-edges (reverse BFS depth from u's matches).
  auto max_in_bound = [&](PatternNodeId u) {
    Distance best = 0;
    for (uint32_t e : q.InEdges(u)) best = std::max(best, q.edges()[e].bound);
    return best;
  };

  // Seed both counter families — ball scans against the mat bitset where
  // the index covers the candidate, the original two bounded BFS sweeps
  // where it does not. Parallel like the bounded matcher: mat is read-only,
  // both directions for candidate v write only fwd/bwd[...][v], and
  // per-worker dead lists concatenated in worker order reproduce the serial
  // worklist exactly.
  for (PatternNodeId u = 0; u < q.NumNodes(); ++u) {
    Distance out_depth = q.MaxOutBound(u);
    Distance in_depth = max_in_bound(u);
    const auto& list = cand.list[u];
    const bool out_indexed =
        ball != nullptr && out_depth > 0 && out_depth <= ball->depth();
    const bool in_indexed = ball != nullptr && in_depth > 0 && in_depth <= ball->depth();
    std::vector<EdgeRef> out_refs, in_refs;
    out_refs.reserve(q.OutEdges(u).size());
    for (uint32_t e : q.OutEdges(u)) {
      const PatternEdge& pe = q.edges()[e];
      out_refs.push_back({pe.bound, mat.Row(pe.dst), fwd[e].data()});
    }
    in_refs.reserve(q.InEdges(u).size());
    for (uint32_t e : q.InEdges(u)) {
      const PatternEdge& pe = q.edges()[e];
      in_refs.push_back({pe.bound, mat.Row(pe.src), bwd[e].data()});
    }
    auto seed_slice = [&](size_t worker, size_t begin, size_t end,
                          std::vector<NodeId>* dead_out, size_t* hits, size_t* falls) {
      BfsBuffers& buf = ctx->Buffers(worker);
      for (size_t i = begin; i < end; ++i) {
        NodeId v = list[i];
        if (out_depth > 0) {
          if (out_indexed && ball->HasOut(v)) {
            ++*hits;
            for (Distance d = 1; d <= out_depth; ++d) {
              for (NodeId w : ball->StratumOut(v, d)) {
                for (const EdgeRef& er : out_refs) {
                  if (d <= er.bound && er.other_mat[w]) ++er.cnt[v];
                }
              }
            }
          } else {
            if (count_fallbacks) ++*falls;
            BoundedBfsNonEmpty<true>(csr, v, out_depth, &buf, [&](NodeId w, Distance d) {
              for (const EdgeRef& er : out_refs) {
                if (d <= er.bound && er.other_mat[w]) ++er.cnt[v];
              }
            });
          }
        }
        if (in_depth > 0) {
          if (in_indexed && ball->HasIn(v)) {
            ++*hits;
            for (Distance d = 1; d <= in_depth; ++d) {
              for (NodeId w : ball->StratumIn(v, d)) {
                for (const EdgeRef& er : in_refs) {
                  if (d <= er.bound && er.other_mat[w]) ++er.cnt[v];
                }
              }
            }
          } else {
            if (count_fallbacks) ++*falls;
            BoundedBfsNonEmpty<false>(csr, v, in_depth, &buf, [&](NodeId w, Distance d) {
              for (const EdgeRef& er : in_refs) {
                if (d <= er.bound && er.other_mat[w]) ++er.cnt[v];
              }
            });
          }
        }
        if (dead(u, v)) dead_out->push_back(v);
      }
    };
    const size_t workers = ctx->SeedWorkers(options.num_threads, list.size());
    ctx->EnsureBuffers(workers, n);
    if (workers <= 1) {
      std::vector<NodeId> dead_list;
      seed_slice(0, 0, list.size(), &dead_list, &ball_hits, &bfs_fallbacks);
      for (NodeId v : dead_list) worklist.emplace_back(u, v);
    } else {
      std::vector<std::vector<NodeId>> dead_lists(workers);
      std::vector<size_t> hits(workers, 0), falls(workers, 0);
      ctx->Pool(workers).ParallelChunks(
          list.size(), workers, [&](size_t worker, size_t begin, size_t end) {
            seed_slice(worker, begin, end, &dead_lists[worker], &hits[worker],
                       &falls[worker]);
          });
      for (size_t w = 0; w < workers; ++w) {
        ball_hits += hits[w];
        bfs_fallbacks += falls[w];
        for (NodeId v : dead_lists[w]) worklist.emplace_back(u, v);
      }
    }
  }

  // Sequential refinement (see bounded_simulation.cc for the rationale);
  // supporter decrements scan the precomputed balls in both directions.
  // Seeding sized the buffers only if some pattern node has out-edges.
  ctx->EnsureBuffers(1, n);
  BfsBuffers& buf = ctx->Buffers(0);
  while (!worklist.empty()) {
    auto [u, v] = worklist.front();
    worklist.pop_front();
    if (!mat.Test(u, v)) continue;
    mat.Reset(u, v);
    // Ancestors lose forward support...
    for (uint32_t e : q.InEdges(u)) {
      const PatternEdge& pe = q.edges()[e];
      auto& counters = fwd[e];
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
    // ...and descendants lose backward support.
    for (uint32_t e : q.OutEdges(u)) {
      const PatternEdge& pe = q.edges()[e];
      auto& counters = bwd[e];
      const auto dst_mat = mat.Row(pe.dst);
      if (ball != nullptr && pe.bound <= ball->depth() && ball->HasOut(v)) {
        ++ball_hits;
        for (NodeId w : ball->BallOut(v, pe.bound)) {
          if (--counters[w] == 0 && dst_mat[w]) {
            worklist.emplace_back(pe.dst, w);
          }
        }
      } else {
        if (count_fallbacks) ++bfs_fallbacks;
        BoundedBfsNonEmpty<true>(csr, v, pe.bound, &buf, [&](NodeId w, Distance) {
          if (--counters[w] == 0 && dst_mat[w]) {
            worklist.emplace_back(pe.dst, w);
          }
        });
      }
    }
  }
  ctx->AddBallStats(ball_hits, bfs_fallbacks);
  return MatchRelation::FromBitmaps(mat);
}

MatchRelation ComputeDualSimulation(const Graph& g, const Pattern& q,
                                    const MatchOptions& options) {
  MatchContext ctx;
  return ComputeDualSimulation(GraphSnapshot::Capture(g), q, options, &ctx);
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
