// Bounded-reachability ball index: the precomputed answer to the one
// question every hot path in the system keeps asking.
//
// Bounded simulation (paper §II) only ever needs "which nodes lie within
// nonempty distance <= b of v?" for the handful of small bounds a pattern
// carries (typically 1–3): seeding counts ball members per candidate,
// refinement decrements supporters over reverse balls, and the incremental
// maintainers recompute counters over both. Before this index each of those
// re-ran a hop-bounded BFS; a KhopIndex answers them with a flat span scan.
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
// version and depth and shared by every reader. MaintainedBallIndex wraps a
// KhopIndex with a patch overlay for the incremental maintainers, whose
// graph mutates in place: an update batch dirties only the balls its
// touched edges can reach, those are re-derived by bounded BFS into the
// overlay, and a large batch (or an outgrown overlay) triggers a measured
// full rebuild instead.

#ifndef EXPFINDER_GRAPH_KHOP_INDEX_H_
#define EXPFINDER_GRAPH_KHOP_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/graph/bfs.h"
#include "src/graph/csr.h"
#include "src/graph/graph.h"
#include "src/graph/types.h"
#include "src/util/dense_bitset.h"

namespace expfinder {

class ThreadPool;

/// \brief Ball-index tunables, shared by MatchOptions and EngineOptions.
struct BallIndexOptions {
  /// Master switch: false = every traversal uses the original BFS path.
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
  /// (The incremental maintainers ignore this: they build eagerly because
  /// a maintained query is reused by construction.)
  uint32_t build_after_uses = 16;
  /// The incremental maintainers serve a batch's traversals from the index
  /// only when the batch has at least this many updates: unit-update
  /// streams have too little intra-batch ball reuse to amortize lazy
  /// re-derivation, so they keep the plain shallow-BFS maintenance path and
  /// the index only records staleness (O(|dirty|) marking). 1 = always
  /// serve from the index.
  size_t maintained_min_batch = 4;

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
  friend class MaintainedBallIndex;

  /// Shared build core, templated over Csr (the matchers' snapshot path)
  /// and Graph (the maintainers' rebuild path). Defined in khop_index.cc —
  /// both instantiations live there.
  template <typename GraphLike>
  static std::unique_ptr<KhopIndex> BuildOver(const GraphLike& g, size_t n,
                                              Distance depth,
                                              const BallIndexOptions& limits,
                                              ThreadPool* pool, size_t workers);

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

  template <bool Forward, typename GraphLike>
  static bool BuildSide(const GraphLike& g, size_t n, Distance depth,
                        const BallIndexOptions& limits, size_t budget_entries,
                        ThreadPool* pool, size_t workers, Side* side);

  KhopIndex() = default;

  size_t n_ = 0;
  Distance depth_ = 0;
  Side fwd_, rev_;
};

/// \brief Mutable ball index for the incremental maintainers: an immutable
/// KhopIndex base plus a lazily patched overlay of re-derived balls.
///
/// After an update batch the caller hands Update() the dirty sets — the
/// nodes whose forward (resp. reverse) balls a touched edge can invalidate.
/// Update() only *marks* them stale (O(|dirty|)); a stale ball is
/// re-derived by one bounded BFS against the current graph the first time a
/// traversal actually touches it, so a batch pays for the balls the
/// fixpoint reads, never for the whole dirty neighborhood. The first touch
/// costs what the plain BFS path would have cost anyway; every later touch
/// is a span scan. When the dirty/stale/overlay volume grows past a
/// fraction of the graph, Update() folds everything into a full rebuild
/// instead (the measured, deliberate path — see rebuilds()).
///
/// Lookups patch in place, so they are non-const — a MaintainedBallIndex is
/// single-owner state like the maintainer that embeds it.
class MaintainedBallIndex {
 public:
  /// Builds over the current graph (serial). Returns nullptr when the
  /// budget is exceeded — callers then keep using plain BFS. The graph
  /// reference is retained (for lazy patching) and must outlive the index.
  static std::unique_ptr<MaintainedBallIndex> Build(const Graph& g, Distance depth,
                                                    const BallIndexOptions& limits);

  Distance depth() const { return depth_; }

  bool HasOut(NodeId v);
  bool HasIn(NodeId v);
  std::span<const NodeId> BallOut(NodeId v, Distance d);
  std::span<const NodeId> BallIn(NodeId v, Distance d);
  std::span<const NodeId> StratumOut(NodeId v, Distance d);
  std::span<const NodeId> StratumIn(NodeId v, Distance d);

  /// Marks the balls an applied batch invalidated — the out-balls of
  /// `dirty_out` and the in-balls of `dirty_in` — stale, against the
  /// current (post-update) graph. `will_serve` says the caller intends to
  /// run this batch's traversals on the index: that is when an invalid
  /// volume approaching the graph size folds into a full rebuild
  /// (marking-only batches never rebuild — they only accumulate marks).
  /// Returns false when a triggered full rebuild blew the entry budget —
  /// the index is then unusable and the caller must drop it.
  bool Update(const Graph& g, const std::vector<NodeId>& dirty_out,
              const std::vector<NodeId>& dirty_in, bool will_serve);

  /// Extends the index for a just-added, still edge-less node (its balls
  /// are empty; nobody else's ball can contain it yet).
  void OnNodeAdded(NodeId v);

  /// Observability: full builds (constructor + rebuilds), full rebuilds
  /// triggered by Update, and individually re-derived balls.
  size_t builds() const { return builds_; }
  size_t rebuilds() const { return rebuilds_; }
  size_t patched_balls() const { return patched_balls_; }
  /// Balls currently marked stale (pending lazy re-derivation).
  size_t stale_balls() const { return stale_out_count_ + stale_in_count_; }

 private:
  /// A re-derived ball in the overlay, same stratified layout as a Side
  /// row. `overflow` mirrors the per-node cap.
  struct PatchedBall {
    bool overflow = false;
    std::vector<uint32_t> off;  // depth + 1 entries
    std::vector<NodeId> nodes;
  };
  using PatchMap = std::unordered_map<NodeId, PatchedBall>;

  MaintainedBallIndex(const Graph& g, Distance depth, BallIndexOptions limits)
      : g_(&g), depth_(depth), limits_(limits) {}

  bool RebuildFrom(const Graph& g);
  void PatchBall(NodeId v, bool forward);
  /// Re-derives v's ball now if it is marked stale.
  template <bool Forward>
  void Refresh(NodeId v);

  template <bool Forward>
  std::span<const NodeId> Lookup(NodeId v, Distance d, bool stratum);

  const Graph* g_;
  Distance depth_;
  BallIndexOptions limits_;
  size_t n_ = 0;
  std::unique_ptr<KhopIndex> base_;
  PatchMap out_patch_, in_patch_;
  DenseBitset stale_out_, stale_in_;  // 1 x n each
  size_t stale_out_count_ = 0;
  size_t stale_in_count_ = 0;
  size_t overlay_entries_ = 0;
  size_t builds_ = 0;
  size_t rebuilds_ = 0;
  size_t patched_balls_ = 0;
  /// Patch scratch, reused across PatchBall calls.
  BfsBuffers patch_buf_;
  std::vector<uint32_t> patch_strata_;
};

}  // namespace expfinder

#endif  // EXPFINDER_GRAPH_KHOP_INDEX_H_
