// Bounded-reachability ball index: the precomputed answer to the one
// question every hot path in the system keeps asking.
//
// Bounded simulation (paper §II) only ever needs "which nodes lie within
// nonempty distance <= b of v?" for the handful of small bounds a pattern
// carries (typically 1–3): seeding counts ball members per candidate, and
// refinement decrements supporters over reverse balls. Before this index
// each of those re-ran a hop-bounded BFS; a KhopIndex answers them with a
// flat span scan.
//
// Layout: for each node, the forward ball BallOut(v, d) — every w with
// shortest *nonempty* distance dist(v, w) in [1, d] — is stored once,
// stratified by exact depth, so the ball for any d <= depth() is a
// contiguous prefix of the depth()-ball and the per-depth strata are
// contiguous slices of it. Reverse balls (BallIn) mirror this over
// in-edges. Entries within a stratum appear in BFS visit order, which is
// exactly the order BoundedBfsNonEmpty would produce, so swapping a BFS for
// a ball scan is behavior-preserving, not just set-preserving.
//
// Memory is bounded and observable: a per-node cap (max_ball_nodes) marks
// dense hubs as overflowed — their balls are not stored and callers fall
// back to BFS for exactly those nodes — and a whole-index budget
// (max_total_entries) fails the build entirely so a dense graph can never
// blow up RAM. Both the per-node and the whole-index fallback run the same
// fixpoints over the same visit sets, so relations are bit-identical with
// the index on, off, or capped (property-tested in random_test.cc).
//
// KhopIndex is immutable — the matchers read the one cached on the published
// GraphSnapshot they evaluate (graph_snapshot.h), built at most once per
// version and depth and shared by every reader, through VisitBall below,
// which also holds the one BFS fallback. The incremental maintainer
// (src/incremental/inc_bounded.h) does not use it: its graph mutates in
// place, and a batch reads only the few balls around its touched edges, so
// it BFSes the live graph, which costs no more than re-deriving those balls
// would.

#ifndef EXPFINDER_GRAPH_KHOP_INDEX_H_
#define EXPFINDER_GRAPH_KHOP_INDEX_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/graph/bfs.h"
#include "src/graph/csr.h"
#include "src/graph/types.h"
#include "src/util/dense_bitset.h"

namespace expfinder {

class ThreadPool;

/// \brief Ball-index tunables, shared by MatchOptions and EngineOptions.
struct BallIndexOptions {
  /// Master switch for the matchers: false = every traversal BFSes the
  /// snapshot's CSR instead of scanning ball spans.
  bool enabled = true;
  /// Largest pattern bound served from the index; a pattern whose finite
  /// max bound exceeds this (or carries only unbounded edges) falls back to
  /// BFS wholesale. Balls grow exponentially with depth, so this is
  /// deliberately small.
  Distance max_depth = 4;
  /// Per-node, per-direction entry cap: a node whose ball exceeds this is
  /// marked overflowed and served by BFS, so one dense hub cannot dominate
  /// the index (or the build time — its BFS aborts at the cap).
  size_t max_ball_nodes = 8192;
  /// Whole-index entry budget across both directions. Exceeding it fails
  /// the build: no index, every traversal falls back to BFS. At 4 bytes per
  /// entry the default bounds one index at ~128 MiB.
  size_t max_total_entries = size_t{1} << 25;
  /// How many matcher runs must observe the same published snapshot before
  /// one of them pays the O(n) build: a full index costs on the order of
  /// tens of uncached evaluations, so versions that serve fewer queries
  /// than this — one-shot calls, write-heavy version churn — never build an
  /// index nobody amortizes, while steady-state read traffic (the ROADMAP
  /// regime: many queries share one graph snapshot) warms it quickly and
  /// scans thereafter. 1 = build eagerly on first use.
  uint32_t build_after_uses = 16;

  friend bool operator==(const BallIndexOptions&, const BallIndexOptions&) = default;
};

/// \brief Immutable <=depth ball index over a CSR snapshot.
class KhopIndex {
 public:
  /// Builds the index, fanning node ranges out over `workers` pool workers
  /// (pool == nullptr or workers <= 1 builds serially; the result is
  /// identical either way). Returns nullptr when the total entry budget is
  /// exceeded.
  static std::unique_ptr<KhopIndex> Build(const Csr& csr, Distance depth,
                                          const BallIndexOptions& limits,
                                          ThreadPool* pool = nullptr,
                                          size_t workers = 1);

  Distance depth() const { return depth_; }
  size_t NumNodes() const { return n_; }
  /// Stored entries across both directions (the index's memory footprint in
  /// NodeId units, offsets aside).
  size_t TotalEntries() const { return fwd_.nodes.size() + rev_.nodes.size(); }
  /// Nodes whose forward/reverse ball overflowed max_ball_nodes.
  size_t OverflowedBalls() const {
    return fwd_.overflow.CountRow(0) + rev_.overflow.CountRow(0);
  }

  /// False when v's ball overflowed the per-node cap: callers must BFS.
  bool HasOut(NodeId v) const { return !fwd_.overflow.Test(0, v); }
  bool HasIn(NodeId v) const { return !rev_.overflow.Test(0, v); }

  /// Every w with shortest nonempty distance dist(v, w) in [1, d]
  /// (d is clamped to depth()); requires HasOut(v).
  std::span<const NodeId> BallOut(NodeId v, Distance d) const {
    return fwd_.Ball(v, d, depth_);
  }
  /// Every w with shortest nonempty distance dist(w, v) in [1, d];
  /// requires HasIn(v).
  std::span<const NodeId> BallIn(NodeId v, Distance d) const {
    return rev_.Ball(v, d, depth_);
  }
  /// The exact-depth-d slice of BallOut/BallIn (1 <= d <= depth()).
  std::span<const NodeId> StratumOut(NodeId v, Distance d) const {
    return fwd_.Stratum(v, d, depth_);
  }
  std::span<const NodeId> StratumIn(NodeId v, Distance d) const {
    return rev_.Stratum(v, d, depth_);
  }

 private:
  /// One direction: balls concatenated node-major, strata inner; the ball
  /// of v at depth d spans nodes[off[v*depth] .. off[v*depth + d]).
  struct Side {
    std::vector<uint64_t> off;  // n * depth + 1 entries
    std::vector<NodeId> nodes;
    DenseBitset overflow;  // 1 x n

    std::span<const NodeId> Ball(NodeId v, Distance d, Distance depth) const {
      const size_t base = static_cast<size_t>(v) * depth;
      const size_t end = base + std::min<size_t>(d, depth);
      return {nodes.data() + off[base], off[end] - off[base]};
    }
    std::span<const NodeId> Stratum(NodeId v, Distance d, Distance depth) const {
      const size_t at = static_cast<size_t>(v) * depth + d;
      return {nodes.data() + off[at - 1], off[at] - off[at - 1]};
    }
  };

  template <bool Forward>
  static bool BuildSide(const Csr& csr, Distance depth, const BallIndexOptions& limits,
                        size_t budget_entries, ThreadPool* pool, size_t workers,
                        Side* side);

  KhopIndex() = default;

  size_t n_ = 0;
  Distance depth_ = 0;
  Side fwd_, rev_;
};

/// Calls `visit(w, d)` once for every w at shortest nonempty distance d in
/// [1, depth] from v — along out-edges when Forward, in-edges otherwise — by
/// scanning v's strata when `ball` covers v at `depth`, else by a bounded
/// BFS over `csr` with `buf`. Both paths visit the same (w, d) pairs in the
/// same order. Returns whether the ball served the visit, so callers can
/// tally ball hits against BFS fallbacks.
template <bool Forward, typename Visit>
bool VisitBall(const KhopIndex* ball, const Csr& csr, NodeId v, Distance depth,
               BfsBuffers* buf, Visit&& visit) {
  if (ball != nullptr && depth <= ball->depth() &&
      (Forward ? ball->HasOut(v) : ball->HasIn(v))) {
    for (Distance d = 1; d <= depth; ++d) {
      for (NodeId w : Forward ? ball->StratumOut(v, d) : ball->StratumIn(v, d)) {
        visit(w, d);
      }
    }
    return true;
  }
  BoundedBfsNonEmpty<Forward>(csr, v, depth, buf, visit);
  return false;
}

}  // namespace expfinder

#endif  // EXPFINDER_GRAPH_KHOP_INDEX_H_
