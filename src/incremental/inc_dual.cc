#include "src/incremental/inc_dual.h"

#include "src/util/logging.h"

namespace expfinder {

IncrementalDualSimulation::IncrementalDualSimulation(Graph* g, Pattern q,
                                                     const MatchOptions& options)
    : g_(g), q_(std::move(q)) {
  EF_CHECK(q_.Validate().ok()) << "invalid pattern";
  const size_t n = g_->NumNodes();
  Distance max_bound = q_.MaxBound();
  seed_depth_ = max_bound == 0 ? 0 : max_bound - 1;
  cand_ = ComputeCandidates(*g_, q_, options);
  mat_ = cand_.bitmap;
  fwd_.assign(q_.NumEdges(), std::vector<int32_t>(n, 0));
  bwd_.assign(q_.NumEdges(), std::vector<int32_t>(n, 0));
  restore_mark_ = DenseBitset(q_.NumNodes(), n);
  buf_.EnsureSize(n);
  seed_bitmap_ = DenseBitset(1, n);

  for (PatternNodeId u = 0; u < q_.NumNodes(); ++u) {
    for (NodeId v : cand_.list[u]) {
      RecomputeCounters(u, v);
      if (Dead(u, v)) worklist_.emplace_back(u, v);
    }
  }
  MatchDelta ignored;
  RunRemovalFixpoint(&ignored, {});
}

MatchRelation IncrementalDualSimulation::Snapshot() const {
  return MatchRelation::FromBitmaps(mat_);
}

Distance IncrementalDualSimulation::MaxInBound(PatternNodeId u) const {
  Distance best = 0;
  for (uint32_t e : q_.InEdges(u)) best = std::max(best, q_.edges()[e].bound);
  return best;
}

bool IncrementalDualSimulation::Dead(PatternNodeId u, NodeId v) const {
  for (uint32_t e : q_.OutEdges(u)) {
    if (fwd_[e][v] == 0) return true;
  }
  for (uint32_t e : q_.InEdges(u)) {
    if (bwd_[e][v] == 0) return true;
  }
  return false;
}

void IncrementalDualSimulation::MarkSeed(NodeId w) {
  if (!seed_bitmap_.Test(0, w)) {
    seed_bitmap_.Set(0, w);
    seed_nodes_.push_back(w);
  }
}

void IncrementalDualSimulation::SeedNodesAround(const GraphUpdate& upd) {
  // Forward windows that may change: ancestors of the edge source.
  MarkSeed(upd.src);
  if (seed_depth_ > 0) {
    BoundedBfsNonEmpty<false>(*g_, upd.src, seed_depth_, &buf_,
                              [&](NodeId w, Distance) { MarkSeed(w); });
  }
  // Backward windows that may change: descendants of the edge target.
  MarkSeed(upd.dst);
  if (seed_depth_ > 0) {
    BoundedBfsNonEmpty<true>(*g_, upd.dst, seed_depth_, &buf_,
                             [&](NodeId w, Distance) { MarkSeed(w); });
  }
}

void IncrementalDualSimulation::RecomputeCounters(PatternNodeId u, NodeId v) {
  const auto& out_edges = q_.OutEdges(u);
  const auto& in_edges = q_.InEdges(u);
  for (uint32_t e : out_edges) fwd_[e][v] = 0;
  for (uint32_t e : in_edges) bwd_[e][v] = 0;
  Distance out_depth = q_.MaxOutBound(u);
  if (out_depth > 0) {
    BoundedBfsNonEmpty<true>(*g_, v, out_depth, &buf_, [&](NodeId w, Distance d) {
      for (uint32_t e : out_edges) {
        const PatternEdge& pe = q_.edges()[e];
        if (d <= pe.bound && mat_.Test(pe.dst, w)) ++fwd_[e][v];
      }
    });
  }
  Distance in_depth = MaxInBound(u);
  if (in_depth > 0) {
    BoundedBfsNonEmpty<false>(*g_, v, in_depth, &buf_, [&](NodeId w, Distance d) {
      for (uint32_t e : in_edges) {
        const PatternEdge& pe = q_.edges()[e];
        if (d <= pe.bound && mat_.Test(pe.src, w)) ++bwd_[e][v];
      }
    });
  }
}

void IncrementalDualSimulation::RunRemovalFixpoint(
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
    // Ancestors lose forward support.
    for (uint32_t e : q_.InEdges(u)) {
      const PatternEdge& pe = q_.edges()[e];
      auto& counters = fwd_[e];
      const auto src_mat = mat_.Row(pe.src);
      BoundedBfsNonEmpty<false>(*g_, v, pe.bound, &buf_, [&](NodeId w, Distance) {
        if (--counters[w] == 0 && src_mat[w]) worklist_.emplace_back(pe.src, w);
      });
    }
    // Descendants lose backward support.
    for (uint32_t e : q_.OutEdges(u)) {
      const PatternEdge& pe = q_.edges()[e];
      auto& counters = bwd_[e];
      const auto dst_mat = mat_.Row(pe.dst);
      BoundedBfsNonEmpty<true>(*g_, v, pe.bound, &buf_, [&](NodeId w, Distance) {
        if (--counters[w] == 0 && dst_mat[w]) worklist_.emplace_back(pe.dst, w);
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

void IncrementalDualSimulation::PreUpdate(const UpdateBatch& batch) {
  for (const GraphUpdate& upd : batch) {
    if (upd.kind == GraphUpdate::Kind::kDeleteEdge) SeedNodesAround(upd);
  }
}

MatchDelta IncrementalDualSimulation::PostUpdate(const UpdateBatch& batch) {
  MatchDelta delta;
  const size_t nq = q_.NumNodes();

  bool any_insert = false;
  for (const GraphUpdate& upd : batch) {
    if (upd.kind == GraphUpdate::Kind::kInsertEdge) {
      any_insert = true;
      SeedNodesAround(upd);
    }
  }

  // Restore closure in both dependency directions.
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
      for (uint32_t e : q_.OutEdges(u)) {
        const PatternEdge& pe = q_.edges()[e];
        BoundedBfsNonEmpty<true>(*g_, v, pe.bound, &buf_,
                                 [&](NodeId w, Distance) { try_restore(pe.dst, w); });
      }
    }
    for (const auto& [u, v] : restored) mat_.Set(u, v);
  }

  // Exact recomputation for changed windows and restored pairs.
  for (NodeId v : seed_nodes_) {
    for (PatternNodeId u = 0; u < nq; ++u) {
      if (cand_.bitmap.Test(u, v)) RecomputeCounters(u, v);
    }
  }
  for (const auto& [u, v] : restored) {
    if (!seed_bitmap_.Test(0, v)) RecomputeCounters(u, v);
  }
  // Patch unmarked pairs: each restored pair adds support inside both kinds
  // of unchanged windows.
  auto marked = [&](PatternNodeId u, NodeId v) {
    return seed_bitmap_.Test(0, v) || restore_mark_.Test(u, v);
  };
  for (const auto& [u, v] : restored) {
    for (uint32_t e : q_.InEdges(u)) {
      const PatternEdge& pe = q_.edges()[e];
      auto& counters = fwd_[e];
      auto bump = [&](NodeId w) {
        if (cand_.bitmap.Test(pe.src, w) && !marked(pe.src, w)) ++counters[w];
      };
      BoundedBfsNonEmpty<false>(*g_, v, pe.bound, &buf_,
                                [&](NodeId w, Distance) { bump(w); });
    }
    for (uint32_t e : q_.OutEdges(u)) {
      const PatternEdge& pe = q_.edges()[e];
      auto& counters = bwd_[e];
      auto bump = [&](NodeId w) {
        if (cand_.bitmap.Test(pe.dst, w) && !marked(pe.dst, w)) ++counters[w];
      };
      BoundedBfsNonEmpty<true>(*g_, v, pe.bound, &buf_,
                               [&](NodeId w, Distance) { bump(w); });
    }
  }

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

  ClearBatchState();
  return delta;
}

void IncrementalDualSimulation::ClearBatchState() {
  for (NodeId v : seed_nodes_) seed_bitmap_.Reset(0, v);
  seed_nodes_.clear();
}

Result<MatchDelta> IncrementalDualSimulation::ApplyBatch(const UpdateBatch& batch) {
  PreUpdate(batch);
  Status st = ::expfinder::ApplyBatch(g_, batch);
  if (!st.ok()) {
    ClearBatchState();
    return st;
  }
  return PostUpdate(batch);
}

void IncrementalDualSimulation::OnNodeAdded(NodeId v) {
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
      // Dual semantics: an isolated node satisfies neither out- nor in-edge
      // constraints, so it only matches fully unconstrained pattern nodes.
      if (q_.OutEdges(u).empty() && q_.InEdges(u).empty()) mat_.Set(u, v);
    }
  }
  for (auto& counters : fwd_) counters.push_back(0);
  for (auto& counters : bwd_) counters.push_back(0);
  seed_bitmap_.AddColumn();
  buf_.EnsureSize(g_->NumNodes());
}

}  // namespace expfinder
