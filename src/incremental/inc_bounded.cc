#include "src/incremental/inc_bounded.h"

#include "src/util/logging.h"

namespace expfinder {

IncrementalBoundedSimulation::IncrementalBoundedSimulation(Graph* g, Pattern q,
                                                           const MatchOptions& options)
    : g_(g), q_(std::move(q)) {
  EF_CHECK(q_.Validate().ok()) << "invalid pattern";
  const size_t n = g_->NumNodes();
  Distance max_bound = q_.MaxBound();
  seed_depth_ = max_bound == 0 ? 0 : max_bound - 1;
  cand_ = ComputeCandidates(*g_, q_, options);
  mat_ = cand_.bitmap;
  cnt_.assign(q_.NumEdges(), std::vector<int32_t>(n, 0));
  restore_mark_ = DenseBitset(q_.NumNodes(), n);
  buf_.EnsureSize(n);
  seed_bitmap_ = DenseBitset(1, n);

  // Initial fixpoint (same as ComputeBoundedSimulation, retaining state).
  for (PatternNodeId u = 0; u < q_.NumNodes(); ++u) {
    if (q_.OutEdges(u).empty()) continue;
    for (NodeId v : cand_.list[u]) {
      RecomputeCounters(u, v);
      AddToWorklistIfDead(u, v);
    }
  }
  MatchDelta ignored;
  RunRemovalFixpoint(&ignored, {});
}

MatchRelation IncrementalBoundedSimulation::Snapshot() const {
  return MatchRelation::FromBitmaps(mat_);
}

void IncrementalBoundedSimulation::MarkSeed(NodeId w) {
  if (!seed_bitmap_.Test(0, w)) {
    seed_bitmap_.Set(0, w);
    seed_nodes_.push_back(w);
  }
}

void IncrementalBoundedSimulation::SeedNodesAround(NodeId src) {
  MarkSeed(src);
  if (seed_depth_ == 0) return;
  BoundedBfsNonEmpty<false>(*g_, src, seed_depth_, &buf_,
                            [&](NodeId w, Distance) { MarkSeed(w); });
}

void IncrementalBoundedSimulation::RecomputeCounters(PatternNodeId u, NodeId v) {
  const auto& out_edges = q_.OutEdges(u);
  if (out_edges.empty()) return;
  for (uint32_t e : out_edges) cnt_[e][v] = 0;
  Distance depth = q_.MaxOutBound(u);
  BoundedBfsNonEmpty<true>(*g_, v, depth, &buf_,
                           [&](NodeId w, Distance d) {
                             for (uint32_t e : out_edges) {
                               const PatternEdge& pe = q_.edges()[e];
                               if (d <= pe.bound && mat_.Test(pe.dst, w)) ++cnt_[e][v];
                             }
                           });
}

void IncrementalBoundedSimulation::AddToWorklistIfDead(PatternNodeId u, NodeId v) {
  for (uint32_t e : q_.OutEdges(u)) {
    if (cnt_[e][v] == 0) {
      worklist_.emplace_back(u, v);
      return;
    }
  }
}

void IncrementalBoundedSimulation::RunRemovalFixpoint(
    MatchDelta* delta, const std::vector<std::pair<PatternNodeId, NodeId>>& restored) {
  while (!worklist_.empty()) {
    auto [u, v] = worklist_.back();
    worklist_.pop_back();
    if (!mat_.Test(u, v)) continue;
    mat_.Reset(u, v);
    if (restore_mark_.Test(u, v)) {
      restore_mark_.Reset(u, v);
    } else {
      delta->removed.emplace_back(u, v);
    }
    for (uint32_t e : q_.InEdges(u)) {
      const PatternEdge& pe = q_.edges()[e];
      auto& counters = cnt_[e];
      const auto src_mat = mat_.Row(pe.src);
      BoundedBfsNonEmpty<false>(*g_, v, pe.bound, &buf_, [&](NodeId w, Distance) {
        if (--counters[w] == 0 && src_mat[w]) {
          worklist_.emplace_back(pe.src, w);
        }
      });
    }
  }
  for (const auto& [u, v] : restored) {
    if (restore_mark_.Test(u, v)) {
      if (mat_.Test(u, v)) delta->added.emplace_back(u, v);
      restore_mark_.Reset(u, v);
    }
  }
}

void IncrementalBoundedSimulation::PreUpdate(const UpdateBatch& batch) {
  // Deletions remove paths that exist only pre-mutation: collect the nodes
  // whose bounded out-window could lose content now, while those paths are
  // still present.
  for (const GraphUpdate& upd : batch) {
    if (upd.kind == GraphUpdate::Kind::kDeleteEdge) SeedNodesAround(upd.src);
  }
}

MatchDelta IncrementalBoundedSimulation::PostUpdate(const UpdateBatch& batch) {
  MatchDelta delta;
  const size_t nq = q_.NumNodes();

  // Insertions add paths that exist only post-mutation.
  bool any_insert = false;
  for (const GraphUpdate& upd : batch) {
    if (upd.kind == GraphUpdate::Kind::kInsertEdge) {
      any_insert = true;
      SeedNodesAround(upd.src);
    }
  }

  // Restore closure: non-matching candidates with a (bounded) support-
  // dependency chain to a seed node may re-qualify; restore them
  // optimistically so mutually dependent (cyclic) pairs are considered
  // together.
  std::vector<std::pair<PatternNodeId, NodeId>> restored;
  if (any_insert) {
    std::vector<std::pair<PatternNodeId, NodeId>> stack;
    auto try_restore = [&](PatternNodeId u, NodeId v) {
      if (!cand_.bitmap.Test(u, v) || mat_.Test(u, v) || restore_mark_.Test(u, v)) return;
      restore_mark_.Set(u, v);
      stack.emplace_back(u, v);
    };
    for (NodeId v : seed_nodes_) {
      for (PatternNodeId u = 0; u < nq; ++u) try_restore(u, v);
    }
    while (!stack.empty()) {
      auto [u, v] = stack.back();
      stack.pop_back();
      restored.emplace_back(u, v);
      for (uint32_t e : q_.InEdges(u)) {
        const PatternEdge& pe = q_.edges()[e];
        BoundedBfsNonEmpty<false>(*g_, v, pe.bound, &buf_,
                                  [&](NodeId w, Distance) { try_restore(pe.src, w); });
      }
    }
    for (const auto& [u, v] : restored) mat_.Set(u, v);
  }

  // Recompute counters of every pair whose window changed (seeds) or whose
  // membership was optimistically restored.
  for (NodeId v : seed_nodes_) {
    for (PatternNodeId u = 0; u < nq; ++u) {
      if (cand_.bitmap.Test(u, v)) RecomputeCounters(u, v);
    }
  }
  for (const auto& [u, v] : restored) {
    if (!seed_bitmap_.Test(0, v)) RecomputeCounters(u, v);
  }
  // Patch counters of *unmarked* pairs: each restored pair is one new
  // member inside their unchanged windows.
  for (const auto& [u, v] : restored) {
    for (uint32_t e : q_.InEdges(u)) {
      const PatternEdge& pe = q_.edges()[e];
      auto& counters = cnt_[e];
      const auto src_cand = cand_.bitmap.Row(pe.src);
      const auto src_restored = restore_mark_.Row(pe.src);
      const auto seeded = seed_bitmap_.Row(0);
      auto bump = [&](NodeId w) {
        if (src_cand[w] && !seeded[w] && !src_restored[w]) ++counters[w];
      };
      BoundedBfsNonEmpty<false>(*g_, v, pe.bound, &buf_,
                                [&](NodeId w, Distance) { bump(w); });
    }
  }

  // Schedule every touched member with a dead counter, then cascade.
  for (NodeId v : seed_nodes_) {
    for (PatternNodeId u = 0; u < nq; ++u) {
      if (mat_.Test(u, v)) AddToWorklistIfDead(u, v);
    }
  }
  for (const auto& [u, v] : restored) AddToWorklistIfDead(u, v);
  last_affected_ = seed_nodes_.size() + restored.size();

  RunRemovalFixpoint(&delta, restored);

  ClearBatchState();
  return delta;
}

void IncrementalBoundedSimulation::ClearBatchState() {
  for (NodeId v : seed_nodes_) seed_bitmap_.Reset(0, v);
  seed_nodes_.clear();
}

void IncrementalBoundedSimulation::OnNodeAdded(NodeId v) {
  EF_CHECK(g_->IsValidNode(v) && v == mat_.NumCols())
      << "OnNodeAdded must follow Graph::AddNode immediately";
  EF_CHECK(g_->OutDegree(v) == 0 && g_->InDegree(v) == 0)
      << "new node must be connected via ApplyBatch after registration";
  cand_.bitmap.AddColumn();
  mat_.AddColumn();
  restore_mark_.AddColumn();
  for (PatternNodeId u = 0; u < q_.NumNodes(); ++u) {
    bool is_cand = q_.node(u).Matches(*g_, v);
    if (is_cand) {
      cand_.bitmap.Set(u, v);
      cand_.list[u].push_back(v);
      if (q_.OutEdges(u).empty()) mat_.Set(u, v);
    }
  }
  for (auto& counters : cnt_) counters.push_back(0);
  seed_bitmap_.AddColumn();
  buf_.EnsureSize(g_->NumNodes());
}

Result<MatchDelta> IncrementalBoundedSimulation::ApplyBatch(const UpdateBatch& batch) {
  PreUpdate(batch);
  Status st = ::expfinder::ApplyBatch(g_, batch);
  if (!st.ok()) {
    // Roll back the seed state so a failed batch leaves us reusable.
    ClearBatchState();
    return st;
  }
  return PostUpdate(batch);
}

}  // namespace expfinder
