#include "src/incremental/inc_bounded.h"

#include <algorithm>

#include "src/util/logging.h"

namespace expfinder {

IncrementalBoundedSimulation::IncrementalBoundedSimulation(Graph* g, Pattern q,
                                                           const MatchOptions& options,
                                                           MatchSemantics semantics)
    : g_(g), q_(std::move(q)), dual_(semantics == MatchSemantics::kDualSimulation) {
  EF_CHECK(q_.Validate().ok()) << "invalid pattern";
  const size_t n = g_->NumNodes();
  Distance max_bound = q_.MaxBound();
  seed_depth_ = max_bound == 0 ? 0 : max_bound - 1;
  cand_ = ComputeCandidates(*g_, q_, options);
  mat_ = cand_.bitmap;
  fwd_.assign(q_.NumEdges(), std::vector<int32_t>(n, 0));
  if (dual_) bwd_.assign(q_.NumEdges(), std::vector<int32_t>(n, 0));
  restore_mark_ = DenseBitset(q_.NumNodes(), n);
  buf_.EnsureSize(n);
  seed_bitmap_ = DenseBitset(1, n);

  // Initial fixpoint (same as the batch matchers, retaining state).
  for (PatternNodeId u = 0; u < q_.NumNodes(); ++u) {
    for (NodeId v : cand_.list[u]) {
      RecomputeCounters(u, v);
      if (Dead(u, v)) worklist_.emplace_back(u, v);
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

void IncrementalBoundedSimulation::SeedNodesAround(const GraphUpdate& upd) {
  auto mark = [&](NodeId w, Distance) { MarkSeed(w); };
  // Forward windows that may change: ancestors of the edge source.
  MarkSeed(upd.src);
  BoundedBfsNonEmpty<false>(*g_, upd.src, seed_depth_, &buf_, mark);
  if (!dual_) return;
  // Backward windows that may change: descendants of the edge target.
  MarkSeed(upd.dst);
  BoundedBfsNonEmpty<true>(*g_, upd.dst, seed_depth_, &buf_, mark);
}

template <bool kForward>
void IncrementalBoundedSimulation::CountWindow(NodeId v, const std::vector<uint32_t>& edges,
                                               std::vector<std::vector<int32_t>>* cnt) {
  Distance depth = 0;
  for (uint32_t e : edges) {
    (*cnt)[e][v] = 0;
    depth = std::max(depth, q_.edges()[e].bound);
  }
  BoundedBfsNonEmpty<kForward>(*g_, v, depth, &buf_, [&](NodeId w, Distance d) {
    for (uint32_t e : edges) {
      const PatternEdge& pe = q_.edges()[e];
      if (d <= pe.bound && mat_.Test(kForward ? pe.dst : pe.src, w)) ++(*cnt)[e][v];
    }
  });
}

void IncrementalBoundedSimulation::RecomputeCounters(PatternNodeId u, NodeId v) {
  CountWindow<true>(v, q_.OutEdges(u), &fwd_);
  if (dual_) CountWindow<false>(v, q_.InEdges(u), &bwd_);
}

bool IncrementalBoundedSimulation::Dead(PatternNodeId u, NodeId v) const {
  for (uint32_t e : q_.OutEdges(u)) {
    if (fwd_[e][v] == 0) return true;
  }
  if (dual_) {
    for (uint32_t e : q_.InEdges(u)) {
      if (bwd_[e][v] == 0) return true;
    }
  }
  return false;
}

template <typename Fn>
void IncrementalBoundedSimulation::ForEachDependent(PatternNodeId u, NodeId v, Fn&& fn) {
  for (uint32_t e : q_.InEdges(u)) {
    const PatternEdge& pe = q_.edges()[e];
    auto& counters = fwd_[e];
    BoundedBfsNonEmpty<false>(*g_, v, pe.bound, &buf_,
                              [&](NodeId w, Distance) { fn(pe.src, w, counters); });
  }
  if (!dual_) return;
  for (uint32_t e : q_.OutEdges(u)) {
    const PatternEdge& pe = q_.edges()[e];
    auto& counters = bwd_[e];
    BoundedBfsNonEmpty<true>(*g_, v, pe.bound, &buf_,
                             [&](NodeId w, Distance) { fn(pe.dst, w, counters); });
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
      restore_mark_.Reset(u, v);  // restored then pruned: no net change
    } else {
      delta->removed.emplace_back(u, v);
    }
    ForEachDependent(u, v, [&](PatternNodeId up, NodeId w, std::vector<int32_t>& counters) {
      if (--counters[w] == 0 && mat_.Test(up, w)) worklist_.emplace_back(up, w);
    });
  }
  // Whatever survived of the restore set is a net addition; clear the marks.
  for (const auto& [u, v] : restored) {
    if (restore_mark_.Test(u, v)) {
      if (mat_.Test(u, v)) delta->added.emplace_back(u, v);
      restore_mark_.Reset(u, v);
    }
  }
}

void IncrementalBoundedSimulation::PreUpdate(const UpdateBatch& batch) {
  // Deletions remove paths that exist only pre-mutation: collect the nodes
  // whose bounded windows could lose content now, while those paths are
  // still present.
  for (const GraphUpdate& upd : batch) {
    if (upd.kind == GraphUpdate::Kind::kDeleteEdge) SeedNodesAround(upd);
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
      SeedNodesAround(upd);
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
      ForEachDependent(u, v, [&](PatternNodeId up, NodeId w, std::vector<int32_t>&) {
        try_restore(up, w);
      });
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
    ForEachDependent(u, v, [&](PatternNodeId up, NodeId w, std::vector<int32_t>& counters) {
      if (cand_.bitmap.Test(up, w) && !seed_bitmap_.Test(0, w) && !restore_mark_.Test(up, w)) {
        ++counters[w];
      }
    });
  }

  // Schedule every touched member with a dead counter, then cascade.
  for (NodeId v : seed_nodes_) {
    for (PatternNodeId u = 0; u < nq; ++u) {
      if (mat_.Test(u, v) && Dead(u, v)) worklist_.emplace_back(u, v);
    }
  }
  for (const auto& [u, v] : restored) {
    if (Dead(u, v)) worklist_.emplace_back(u, v);
  }
  last_affected_ = seed_nodes_.size() + restored.size();

  RunRemovalFixpoint(&delta, restored);

  for (NodeId v : seed_nodes_) seed_bitmap_.Reset(0, v);
  seed_nodes_.clear();
  return delta;
}

Result<MatchDelta> IncrementalBoundedSimulation::ApplyBatch(const UpdateBatch& batch) {
  EF_RETURN_NOT_OK(ValidateBatch(*g_, batch));
  PreUpdate(batch);
  Status st = ::expfinder::ApplyBatch(g_, batch);
  EF_CHECK(st.ok()) << "validated batch failed to apply: " << st;
  return PostUpdate(batch);
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
    if (!q_.node(u).Matches(*g_, v)) continue;
    cand_.bitmap.Set(u, v);
    cand_.list[u].push_back(v);
    // An isolated node satisfies no window constraint, so it only matches
    // pattern nodes without any.
    if (q_.OutEdges(u).empty() && (!dual_ || q_.InEdges(u).empty())) mat_.Set(u, v);
  }
  for (auto& counters : fwd_) counters.push_back(0);
  for (auto& counters : bwd_) counters.push_back(0);
  seed_bitmap_.AddColumn();
  buf_.EnsureSize(g_->NumNodes());
}

}  // namespace expfinder
