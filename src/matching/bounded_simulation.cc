#include "src/matching/bounded_simulation.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "src/graph/csr.h"
#include "src/graph/khop_index.h"
#include "src/graph/shortest_paths.h"
#include "src/matching/match_context.h"
#include "src/util/flat_queue.h"

namespace expfinder {

namespace {

using Pair = SupportPairs::Pair;

constexpr uint32_t kNotCandidate = std::numeric_limits<uint32_t>::max();

/// One pattern node's candidate bitmap row with its rank directory.
struct CandidateIndex {
  DenseBitset::ConstRow row;
  const uint32_t* rank;  // candidates before each 64-bit word of the row

  /// w's index in the sorted candidate list, or kNotCandidate.
  uint32_t IndexOf(NodeId w) const {
    // Shift w's bit to the top: the word keeps only the bits up to w.
    const uint64_t upto = row.Word(w >> 6) << (63 - (w & 63));
    if ((upto >> 63) == 0) return kNotCandidate;
    return rank[w >> 6] + static_cast<uint32_t>(std::popcount(upto)) - 1;
  }
};

/// Hoisted seeding state of one out-edge of the scanned pattern node.
struct OutRef {
  Distance bound;
  CandidateIndex target;
  SupportPairs::Edge* edge;
};

/// Builds `edge`'s reverse index (sources grouped by target, ascending) and
/// its live_targets counters, on the first removal of one of its targets.
void BuildReverseIndex(size_t num_targets, SupportPairs::Edge* edge) {
  const size_t num_sources = edge->offsets.size() - 1;
  edge->live_targets.resize(num_sources);
  for (size_t i = 0; i < num_sources; ++i) {
    edge->live_targets[i] = static_cast<int32_t>(edge->offsets[i + 1] - edge->offsets[i]);
  }
  // Counting sort: count each target's sources at rev_offsets[j + 1], turn
  // the counts into starts, scatter with rev_offsets[j] as j's cursor
  // (which leaves it at j's end, i.e. j + 1's start), then shift back.
  auto& off = edge->rev_offsets;
  off.assign(num_targets + 1, 0);
  for (const Pair& p : edge->pairs) ++off[p.target + 1];
  for (size_t j = 1; j <= num_targets; ++j) off[j] += off[j - 1];
  edge->rev_sources.resize(edge->pairs.size());
  for (uint32_t i = 0; i < num_sources; ++i) {
    for (const Pair& p : edge->Of(i)) edge->rev_sources[off[p.target]++] = i;
  }
  for (size_t j = num_targets; j > 0; --j) off[j] = off[j - 1];
  off[0] = 0;
}

}  // namespace

MatchRelation ComputeBoundedSimulation(const SnapshotPtr& s, const Pattern& q,
                                       const MatchOptions& options, MatchContext* ctx,
                                       MatchSemantics semantics) {
  ctx->BindSnapshot(s);
  const Graph& g = s->graph();
  const size_t n = g.NumNodes();
  const size_t nq = q.NumNodes();
  const bool dual = semantics == MatchSemantics::kDualSimulation;

  CandidateSets cand = ComputeCandidates(g, q, options, ctx);
  DenseBitset mat = std::move(cand.bitmap);
  SupportPairs& sp = ctx->Pairs();
  sp.candidates = std::move(cand.list);
  sp.edges.resize(q.NumEdges());
  const auto& lists = sp.candidates;
  // Rank directories of the pattern nodes that are edge targets: a ball
  // member's candidate index costs one popcount.
  const size_t words = (n + 63) / 64;
  sp.rank.resize(nq * words);
  for (PatternNodeId u = 0; u < nq; ++u) {
    if (q.InEdges(u).empty()) continue;
    const auto row = mat.Row(u);
    uint32_t* rank = sp.rank.data() + u * words;
    uint32_t before = 0;
    for (size_t i = 0; i < words; ++i) {
      rank[i] = before;
      before += static_cast<uint32_t>(std::popcount(row.Word(i)));
    }
  }

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
  // (pattern node, candidate index) pairs awaiting removal.
  FlatQueue<std::pair<PatternNodeId, uint32_t>> worklist;

  // Seed: one scan of each candidate v's forward ball, up to u's largest
  // out-bound, records v's support pairs for every out-edge of u (see
  // SupportPairs). v is dead when some out-edge got none.
  //
  // This phase is embarrassingly parallel: mat is read-only, and each
  // worker owns a disjoint contiguous slice of the candidates, cut so the
  // slices scan about equally many ball or adjacency entries. The workers'
  // pair and dead lists are appended in worker order afterwards, so the
  // pairs and the worklist are bit-for-bit those of the serial pass.
  for (PatternNodeId u = 0; u < nq; ++u) {
    const auto& out_edges = q.OutEdges(u);
    if (out_edges.empty()) continue;
    const auto& list = lists[u];
    std::vector<OutRef> refs;
    for (uint32_t e : out_edges) {
      const PatternEdge& pe = q.edges()[e];
      SupportPairs::Edge& edge = sp.edges[e];
      edge.offsets.resize(list.size() + 1);
      edge.offsets[0] = 0;
      edge.pairs.clear();
      edge.rev_offsets.clear();  // no reverse index yet
      refs.push_back({pe.bound, {mat.Row(pe.dst), sp.rank.data() + pe.dst * words}, &edge});
    }
    const size_t num_refs = refs.size();
    const Distance depth = q.MaxOutBound(u);
    // Scans candidates [begin, end), appending their pairs to outs[r] (one
    // list per out-edge) and storing offsets relative to those lists.
    auto seed_slice = [&](size_t worker, size_t begin, size_t end,
                          std::vector<Pair>* const* outs, std::vector<uint32_t>* dead,
                          size_t* hits, size_t* falls) {
      BfsBuffers& buf = ctx->Buffers(worker);
      std::vector<uint32_t*> offsets(num_refs);
      for (size_t r = 0; r < num_refs; ++r) offsets[r] = refs[r].edge->offsets.data();
      for (size_t i = begin; i < end; ++i) {
        bool served = false;
        if (num_refs == 1) {
          // One out-edge, as in star and chain patterns: its bound is the
          // scan depth, and its state stays in registers.
          served = VisitBall(ball, csr, list[i], depth, &buf,
                             [target = refs[0].target, out = outs[0]](NodeId w, Distance d) {
                               const uint32_t j = target.IndexOf(w);
                               if (j != kNotCandidate) out->push_back({j, d});
                             });
        } else {
          served = VisitBall(ball, csr, list[i], depth, &buf, [&](NodeId w, Distance d) {
            for (size_t r = 0; r < num_refs; ++r) {
              if (d > refs[r].bound) continue;
              const uint32_t j = refs[r].target.IndexOf(w);
              if (j != kNotCandidate) outs[r]->push_back({j, d});
            }
          });
        }
        tally(served, hits, falls);
        bool supported = true;
        for (size_t r = 0; r < num_refs; ++r) {
          const auto size = static_cast<uint32_t>(outs[r]->size());
          supported &= size != (i == begin ? 0 : offsets[r][i]);
          offsets[r][i + 1] = size;
        }
        if (!supported) dead->push_back(static_cast<uint32_t>(i));
      }
    };
    // A candidate's seeding weight: the ball entries its scan reads, or its
    // adjacency when it runs a BFS.
    auto weight = [&](NodeId v) -> size_t {
      const bool indexed = ball != nullptr && depth <= ball->depth() && ball->HasOut(v);
      return 1 + (indexed ? ball->BallOut(v, depth).size() : csr.OutDegree(v));
    };
    size_t workers = 1;
    size_t total_weight = 0;
    if (options.num_threads != 1 && list.size() > 1) {
      for (NodeId v : list) total_weight += weight(v);
      workers = std::min(ctx->SeedWorkers(options.num_threads, total_weight), list.size());
    }
    ctx->EnsureBuffers(workers, n);
    if (workers <= 1) {
      std::vector<std::vector<Pair>*> outs(num_refs);
      for (size_t r = 0; r < num_refs; ++r) outs[r] = &refs[r].edge->pairs;
      std::vector<uint32_t> dead;
      seed_slice(0, 0, list.size(), outs.data(), &dead, &ball_hits, &bfs_fallbacks);
      for (uint32_t i : dead) worklist.emplace_back(u, i);
      continue;
    }
    std::vector<size_t> bounds(workers + 1, list.size());
    bounds[0] = 0;
    size_t acc = 0;
    for (size_t i = 0, k = 1; i < list.size() && k < workers; ++i) {
      acc += weight(list[i]);
      while (k < workers && acc * workers >= total_weight * k) bounds[k++] = i + 1;
    }
    // Each worker fills lists and tallies of its own, so no two workers
    // write one cache line while they scan, and hands them over at the end.
    struct Slice {
      std::vector<std::vector<Pair>> pairs;
      std::vector<uint32_t> dead;
      size_t hits = 0, falls = 0;
    };
    std::vector<Slice> slices(workers);
    ctx->Pool(workers).ParallelChunks(workers, workers, [&](size_t k, size_t, size_t) {
      Slice mine;
      mine.pairs.resize(num_refs);
      std::vector<std::vector<Pair>*> mine_outs(num_refs);
      for (size_t r = 0; r < num_refs; ++r) mine_outs[r] = &mine.pairs[r];
      seed_slice(k, bounds[k], bounds[k + 1], mine_outs.data(), &mine.dead, &mine.hits,
                 &mine.falls);
      slices[k] = std::move(mine);
    });
    for (size_t k = 0; k < workers; ++k) {
      const Slice& slice = slices[k];
      ball_hits += slice.hits;
      bfs_fallbacks += slice.falls;
      for (size_t r = 0; r < num_refs; ++r) {
        SupportPairs::Edge& edge = *refs[r].edge;
        const auto base = static_cast<uint32_t>(edge.pairs.size());
        for (size_t i = bounds[k]; i < bounds[k + 1]; ++i) edge.offsets[i + 1] += base;
        edge.pairs.insert(edge.pairs.end(), slice.pairs[r].begin(), slice.pairs[r].end());
      }
      for (uint32_t i : slice.dead) worklist.emplace_back(u, i);
    }
  }

  // Under dual semantics each target candidate also counts the sources of
  // its pairs; a candidate some in-edge gives none is dead as well.
  if (dual) {
    for (uint32_t e = 0; e < q.NumEdges(); ++e) {
      SupportPairs::Edge& edge = sp.edges[e];
      edge.live_sources.assign(lists[q.edges()[e].dst].size(), 0);
      for (const Pair& p : edge.pairs) ++edge.live_sources[p.target];
    }
    for (PatternNodeId u = 0; u < nq; ++u) {
      const auto& in_edges = q.InEdges(u);
      if (in_edges.empty()) continue;
      for (uint32_t j = 0; j < lists[u].size(); ++j) {
        if (std::any_of(in_edges.begin(), in_edges.end(),
                        [&](uint32_t e) { return sp.edges[e].live_sources[j] == 0; })) {
          worklist.emplace_back(u, j);
        }
      }
    }
  }

  // Refinement stays sequential: the cascade order defines the worklist
  // contents, and determinism is part of the matcher's contract. A removed
  // pair decrements the counters of the pairs it supported, read from the
  // pairs themselves: nothing walks the graph after seeding.
  while (!worklist.empty()) {
    auto [u, j] = worklist.front();
    worklist.pop_front();
    if (!mat.Test(u, lists[u][j])) continue;
    mat.Reset(u, lists[u][j]);
    // Every source whose pairs reach v loses one supporter...
    for (uint32_t e : q.InEdges(u)) {
      const PatternNodeId src = q.edges()[e].src;
      SupportPairs::Edge& edge = sp.edges[e];
      if (edge.rev_offsets.empty()) BuildReverseIndex(lists[u].size(), &edge);
      const auto src_mat = mat.Row(src);
      for (uint32_t k = edge.rev_offsets[j]; k < edge.rev_offsets[j + 1]; ++k) {
        const uint32_t i = edge.rev_sources[k];
        if (--edge.live_targets[i] == 0 && src_mat[lists[src][i]]) {
          worklist.emplace_back(src, i);
        }
      }
    }
    if (!dual) continue;
    // ...and under dual semantics, so does every target of v's pairs.
    for (uint32_t e : q.OutEdges(u)) {
      const PatternNodeId dst = q.edges()[e].dst;
      SupportPairs::Edge& edge = sp.edges[e];
      const auto dst_mat = mat.Row(dst);
      for (const Pair& p : edge.Of(j)) {
        if (--edge.live_sources[p.target] == 0 && dst_mat[lists[dst][p.target]]) {
          worklist.emplace_back(dst, p.target);
        }
      }
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
