#include "src/graph/khop_index.h"

#include <algorithm>
#include <atomic>

#include "src/graph/bfs.h"
#include "src/util/logging.h"
#include "src/util/thread_pool.h"

namespace expfinder {

namespace {

/// Capped, stratified hop-bounded forward BFS over nonempty paths (the
/// same frontier discipline as BoundedBfsNonEmpty: the source is not
/// pre-marked, so it appears in its own ball iff it lies on a cycle).
/// Appends every visited node to *out in visit order — which is
/// nondecreasing-depth order, i.e. already stratified — and writes the
/// per-depth visit counts to strata[0..depth-1]. Returns false, with *out
/// restored and strata zeroed, as soon as more than max_nodes nodes would be
/// collected: hubs pay for at most max_nodes + one frontier expansion, not
/// their full ball.
bool CollectBall(const Csr& g, NodeId src, Distance depth, size_t max_nodes,
                 BfsBuffers* buf, std::vector<NodeId>* out, uint32_t* strata) {
  const size_t start = out->size();
  std::fill_n(strata, depth, 0u);
  bool overflow = false;
  auto visit = [&](NodeId w, Distance d) {
    if (out->size() - start >= max_nodes) {
      overflow = true;
      return false;
    }
    out->push_back(w);
    ++strata[d - 1];
    return true;
  };
  for (NodeId w : OutAdj(g, src)) {
    if (buf->dist[w] != kUnreachable) continue;
    buf->dist[w] = 1;
    buf->touched.push_back(w);
    buf->queue.push_back(w);
    if (!visit(w, 1)) break;
  }
  size_t head = 0;
  while (!overflow && head < buf->queue.size()) {
    NodeId v = buf->queue[head++];
    Distance d = buf->dist[v];
    if (d >= depth) continue;
    for (NodeId w : OutAdj(g, v)) {
      if (buf->dist[w] != kUnreachable) continue;
      buf->dist[w] = d + 1;
      buf->touched.push_back(w);
      buf->queue.push_back(w);
      if (!visit(w, d + 1)) break;
    }
  }
  buf->Release();
  if (overflow) {
    out->resize(start);
    std::fill_n(strata, depth, 0u);
    return false;
  }
  return true;
}

}  // namespace

std::unique_ptr<KhopIndex> KhopIndex::Build(const Csr& csr, Distance depth,
                                            const BallIndexOptions& limits,
                                            ThreadPool* pool, size_t workers) {
  EF_CHECK(depth >= 1 && depth != kUnreachable) << "ball index depth must be finite";
  const size_t n = csr.NumNodes();
  std::vector<uint32_t> counts(n * static_cast<size_t>(depth), 0);
  const size_t chunks = (pool != nullptr && workers > 1) ? workers : 1;
  std::vector<std::vector<NodeId>> chunk_nodes(chunks);
  std::vector<std::vector<NodeId>> chunk_overflow(chunks);
  std::atomic<size_t> total{0};
  std::atomic<bool> over_budget{false};

  auto run_chunk = [&](size_t chunk, size_t begin, size_t end) {
    BfsBuffers buf;
    buf.EnsureSize(n);
    std::vector<uint32_t> strata(depth);
    auto& out = chunk_nodes[chunk];
    for (NodeId v = static_cast<NodeId>(begin); v < end; ++v) {
      if (over_budget.load(std::memory_order_relaxed)) return;
      const size_t before = out.size();
      if (!CollectBall(csr, v, depth, limits.max_ball_nodes, &buf, &out, strata.data())) {
        chunk_overflow[chunk].push_back(v);
        continue;
      }
      std::copy_n(strata.data(), depth, counts.begin() + static_cast<size_t>(v) * depth);
      const size_t added = out.size() - before;
      if (total.fetch_add(added, std::memory_order_relaxed) + added >
          limits.max_total_entries) {
        over_budget.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };
  if (chunks > 1) {
    pool->ParallelChunks(n, chunks, run_chunk);
  } else {
    run_chunk(0, 0, n);
  }
  if (over_budget.load(std::memory_order_relaxed)) return nullptr;

  // Stitch: strata counts -> offsets, chunk outputs (already in node order)
  // -> one flat array, overflow lists -> the bitset.
  auto idx = std::unique_ptr<KhopIndex>(new KhopIndex());
  idx->n_ = n;
  idx->depth_ = depth;
  idx->off_.assign(counts.size() + 1, 0);
  for (size_t i = 0; i < counts.size(); ++i) idx->off_[i + 1] = idx->off_[i] + counts[i];
  idx->nodes_.reserve(idx->off_.back());
  for (const auto& part : chunk_nodes) {
    idx->nodes_.insert(idx->nodes_.end(), part.begin(), part.end());
  }
  EF_CHECK(idx->nodes_.size() == idx->off_.back()) << "ball index stitch mismatch";
  idx->overflow_ = DenseBitset(1, n);
  for (const auto& part : chunk_overflow) {
    for (NodeId v : part) idx->overflow_.Set(0, v);
  }
  return idx;
}

}  // namespace expfinder
