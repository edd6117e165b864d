#include "src/incremental/inc_simulation.h"

#include "src/util/logging.h"

namespace expfinder {

IncrementalSimulation::IncrementalSimulation(Graph* g, Pattern q,
                                             const MatchOptions& options)
    : g_(g), q_(std::move(q)) {
  EF_CHECK(q_.IsSimulationPattern())
      << "IncrementalSimulation requires bounds == 1 (use bounded variant)";
  EF_CHECK(q_.Validate().ok()) << "invalid pattern";
  const size_t n = g_->NumNodes();
  cand_ = ComputeCandidates(*g_, q_, options);
  mat_ = cand_.bitmap;
  cnt_.assign(q_.NumEdges(), std::vector<int32_t>(n, 0));
  restore_mark_ = DenseBitset(q_.NumNodes(), n);
  // Initial fixpoint, identical to ComputeSimulation but retaining state.
  for (uint32_t e = 0; e < q_.NumEdges(); ++e) {
    const PatternEdge& pe = q_.edges()[e];
    const auto dst_mat = mat_.Row(pe.dst);
    for (NodeId v : cand_.list[pe.src]) {
      int32_t c = 0;
      for (NodeId w : g_->OutNeighbors(v)) c += dst_mat[w];
      cnt_[e][v] = c;
      if (c == 0) worklist_.emplace_back(pe.src, v);
    }
  }
  MatchDelta ignored;
  RunRemovalFixpoint(&ignored, {});
}

MatchRelation IncrementalSimulation::Snapshot() const {
  return MatchRelation::FromBitmaps(mat_);
}

void IncrementalSimulation::AddToWorklistIfDead(PatternNodeId u, NodeId v) {
  for (uint32_t e : q_.OutEdges(u)) {
    if (cnt_[e][v] == 0) {
      worklist_.emplace_back(u, v);
      return;
    }
  }
}

void IncrementalSimulation::RunRemovalFixpoint(
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
    for (uint32_t e : q_.InEdges(u)) {
      const PatternEdge& pe = q_.edges()[e];
      auto& counters = cnt_[e];
      const auto src_mat = mat_.Row(pe.src);
      for (NodeId w : g_->InNeighbors(v)) {
        if (--counters[w] == 0 && src_mat[w]) {
          worklist_.emplace_back(pe.src, w);
        }
      }
    }
  }
  // Whatever survived of the restore set is a net addition; clear the marks.
  for (const auto& [u, v] : restored) {
    if (restore_mark_.Test(u, v)) {
      if (mat_.Test(u, v)) delta->added.emplace_back(u, v);
      restore_mark_.Reset(u, v);
    }
  }
}

void IncrementalSimulation::PreUpdate(const UpdateBatch&) {
  // Simulation windows are single edges; no pre-mutation state is needed.
}

MatchDelta IncrementalSimulation::PostUpdate(const UpdateBatch& batch) {
  MatchDelta delta;
  const size_t nq = q_.NumNodes();

  // Phase 1: exact counter arithmetic for touched source endpoints. Valid
  // for whole batches because mat_ is unchanged while we account, and the
  // per-pair net edge diff equals the sum of per-update deltas.
  bool any_insert = false;
  for (const GraphUpdate& upd : batch) {
    int sign = upd.kind == GraphUpdate::Kind::kInsertEdge ? +1 : -1;
    any_insert |= sign > 0;
    for (PatternNodeId u = 0; u < nq; ++u) {
      if (!cand_.bitmap.Test(u, upd.src)) continue;
      for (uint32_t e : q_.OutEdges(u)) {
        const PatternEdge& pe = q_.edges()[e];
        if (mat_.Test(pe.dst, upd.dst)) cnt_[e][upd.src] += sign;
      }
    }
  }

  // Phase 2 (insertions): optimistic restore closure over candidate pairs
  // with a support-dependency chain to a touched source.
  std::vector<std::pair<PatternNodeId, NodeId>> restored;
  if (any_insert) {
    std::vector<std::pair<PatternNodeId, NodeId>> stack;
    auto try_restore = [&](PatternNodeId u, NodeId v) {
      if (!cand_.bitmap.Test(u, v) || mat_.Test(u, v) || restore_mark_.Test(u, v)) return;
      restore_mark_.Set(u, v);
      stack.emplace_back(u, v);
    };
    for (const GraphUpdate& upd : batch) {
      if (upd.kind != GraphUpdate::Kind::kInsertEdge) continue;
      // (u, src) can only improve directly if the new edge's target could
      // support some out-edge of u (it is at least a candidate there);
      // indirect improvements reach src through the closure expansion.
      for (PatternNodeId u = 0; u < nq; ++u) {
        bool relevant = false;
        for (uint32_t e : q_.OutEdges(u)) {
          if (cand_.bitmap.Test(q_.edges()[e].dst, upd.dst)) {
            relevant = true;
            break;
          }
        }
        if (relevant) try_restore(u, upd.src);
      }
    }
    while (!stack.empty()) {
      auto [u, v] = stack.back();
      stack.pop_back();
      restored.emplace_back(u, v);
      for (uint32_t e : q_.InEdges(u)) {
        PatternNodeId usrc = q_.edges()[e].src;
        for (NodeId w : g_->InNeighbors(v)) try_restore(usrc, w);
      }
    }
    // Enter all restored pairs into mat_, then recompute their counters and
    // bump the counters of unaffected in-neighbors.
    for (const auto& [u, v] : restored) mat_.Set(u, v);
    for (const auto& [u, v] : restored) {
      for (uint32_t e : q_.OutEdges(u)) {
        const PatternEdge& pe = q_.edges()[e];
        const auto dst_mat = mat_.Row(pe.dst);
        int32_t c = 0;
        for (NodeId w : g_->OutNeighbors(v)) c += dst_mat[w];
        cnt_[e][v] = c;
      }
      for (uint32_t e : q_.InEdges(u)) {
        PatternNodeId usrc = q_.edges()[e].src;
        const auto src_cand = cand_.bitmap.Row(usrc);
        const auto src_restored = restore_mark_.Row(usrc);
        auto& counters = cnt_[e];
        for (NodeId w : g_->InNeighbors(v)) {
          if (src_cand[w] && !src_restored[w]) ++counters[w];
        }
      }
    }
    for (const auto& [u, v] : restored) AddToWorklistIfDead(u, v);
  }

  // Phase 3: schedule touched members whose counters dropped, then cascade.
  for (const GraphUpdate& upd : batch) {
    if (upd.kind != GraphUpdate::Kind::kDeleteEdge) continue;
    for (PatternNodeId u = 0; u < nq; ++u) {
      if (mat_.Test(u, upd.src)) AddToWorklistIfDead(u, upd.src);
    }
  }
  last_affected_ = restored.size() + batch.size();
  RunRemovalFixpoint(&delta, restored);
  return delta;
}

Result<MatchDelta> IncrementalSimulation::ApplyBatch(const UpdateBatch& batch) {
  PreUpdate(batch);
  EF_RETURN_NOT_OK(::expfinder::ApplyBatch(g_, batch));
  return PostUpdate(batch);
}

void IncrementalSimulation::OnNodeAdded(NodeId v) {
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
      // An isolated node supports no out-edge constraint, so it only matches
      // pattern nodes without outgoing edges.
      if (q_.OutEdges(u).empty()) mat_.Set(u, v);
    }
  }
  for (auto& counters : cnt_) counters.push_back(0);
}

}  // namespace expfinder
