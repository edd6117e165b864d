// Per-reader scratch state reused across queries — the amortization layer
// of the matching hot path.
//
// Every batch matcher used to pay three avoidable constant-factor costs on
// *each* call: an O(n+m) Csr snapshot of the (usually unchanged) graph,
// fresh BFS scratch buffers, and fresh per-pattern-edge counter arrays. A
// MatchContext owns all three and hands them out for reuse:
//
//   * SnapshotFor(g) returns a Csr rebuilt only when the graph identity or
//     its version() changed since the last call — in the query engine's
//     steady state (no updates between queries) the snapshot is built once
//     and shared by the matchers *and* ResultGraph construction.
//   * EnsureBuffers/Buffers provide one BfsBuffers per parallel seeding
//     worker (worker 0 doubles as the serial-path buffer).
//   * Counters provides the per-edge int32 counter arrays (two independent
//     pools, because dual simulation needs a forward and a backward family).
//   * Pool lazily owns the ThreadPool used for parallel seeding.
//
// A MatchContext is single-owner state: it must not be shared between
// threads, and at most one matcher may run against it at a time (the
// matchers themselves fan out internally via Pool()). Stateless callers can
// simply construct a fresh MatchContext per call — that is exactly the old
// behaviour — which is what the thin compatibility overloads of the
// matchers do. Concurrent callers give each worker its *own* context: the
// ExpFinderService keeps a pool of per-worker contexts and leases one to
// every in-flight query, so snapshots and scratch never cross threads.

#ifndef EXPFINDER_MATCHING_MATCH_CONTEXT_H_
#define EXPFINDER_MATCHING_MATCH_CONTEXT_H_

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "src/graph/bfs.h"
#include "src/graph/csr.h"
#include "src/graph/graph.h"
#include "src/graph/graph_snapshot.h"
#include "src/graph/khop_index.h"
#include "src/util/thread_pool.h"

namespace expfinder {

/// \brief Versioned CSR snapshot cache + reusable matcher scratch.
class MatchContext {
 public:
  MatchContext() = default;
  MatchContext(const MatchContext&) = delete;
  MatchContext& operator=(const MatchContext&) = delete;

  /// Binds this context to a published GraphSnapshot: while bound, every
  /// SnapshotFor / BallIndexFor / CachedBallIndex call against the
  /// snapshot's graph is answered from the snapshot itself — the shared,
  /// pre-built CSR and the shared lazily-built ball index — instead of the
  /// context's private (uid, version)-keyed slots. The context retains the
  /// handle, pinning the snapshot for as long as the binding lasts (a
  /// worker binds per request; the engine rebinds at each publish).
  /// Binding nullptr unbinds. The private slots are untouched either way,
  /// so unbound use (the pre-snapshot paths, tests, oracles) behaves
  /// exactly as before.
  void BindSnapshot(SnapshotPtr snapshot) { snapshot_ = std::move(snapshot); }
  const SnapshotPtr& bound_snapshot() const { return snapshot_; }

  /// The CSR snapshot of `g`, rebuilt only when the cached snapshot was
  /// taken from a different graph — keyed on (address, Graph::uid(),
  /// version()); the uid catches a Graph re-constructed in place whose
  /// restarted version counter collides with the cached one. The reference
  /// stays valid until the next SnapshotFor with a changed graph. When `g`
  /// is the bound snapshot's graph, returns the snapshot's shared CSR
  /// without building anything.
  const Csr& SnapshotFor(const Graph& g);

  /// Drops the cached snapshot and the ball index derived from it (next
  /// SnapshotFor / BallIndexFor rebuild).
  void InvalidateSnapshot();

  /// How many times a snapshot has been (re)built — the steady-state
  /// regression signal: repeated queries on an unmutated graph must not
  /// increase this.
  size_t snapshot_builds() const { return snapshot_builds_; }

  /// The cached k-hop ball index for `g` at (at least) `depth`, building it
  /// if needed, or nullptr when the matcher must BFS instead: the index is
  /// disabled, `depth` is 0 / unbounded / beyond limits.max_depth, or the
  /// build blew limits.max_total_entries (the failure is memoized per
  /// (graph, version, limits) so refused queries don't re-pay the build).
  /// Keyed like SnapshotFor — (address, uid, version) — plus the limits, so
  /// a per-request cap change never serves an index built under different
  /// caps. Grow-only in depth within one key: a deeper request rebuilds,
  /// shallower requests reuse (smaller balls are prefixes of deeper ones).
  /// Build is additionally *deferred*: the first
  /// BallIndexOptions::build_after_uses - 1 calls against a fresh key
  /// return nullptr without building, so only graph versions with
  /// demonstrated reuse pay the O(n) construction.
  const KhopIndex* BallIndexFor(const Graph& g, Distance depth,
                                const BallIndexOptions& limits, uint32_t num_threads);

  /// The already-built index for `g` at its current version, or nullptr —
  /// never builds, never counts a use. For secondary consumers
  /// (ResultGraph construction) that ride on whatever the matchers warmed.
  const KhopIndex* CachedBallIndex(const Graph& g) const {
    if (snapshot_ != nullptr && &snapshot_->graph() == &g) {
      return snapshot_->CachedBallIndex();
    }
    if (ball_index_ != nullptr && ball_graph_ == &g && ball_uid_ == g.uid() &&
        ball_version_ == g.version()) {
      return ball_index_.get();
    }
    return nullptr;
  }

  /// Successful ball-index (re)builds, and the matchers' traversal-path
  /// tallies: ball_hits counts traversals served from the index,
  /// bfs_fallbacks counts traversals that ran a BFS although the index was
  /// requested (no index, depth beyond it, overflowed hub).
  size_t ball_index_builds() const { return ball_index_builds_; }
  size_t ball_hits() const { return ball_hits_; }
  size_t bfs_fallbacks() const { return bfs_fallbacks_; }

  /// Matchers report their per-run tallies here (single-owner, like all
  /// context state — parallel seeding phases accumulate per-worker and
  /// report once).
  void AddBallStats(size_t hits, size_t fallbacks) {
    ball_hits_ += hits;
    bfs_fallbacks_ += fallbacks;
  }

  /// The shared topic inverted index of the bound snapshot's graph, building
  /// it if this call crosses its deferred threshold (counted in
  /// topic_index_builds). The topic index lives on published snapshots only:
  /// an unbound context — or a call against some other graph — returns
  /// nullptr and the caller keeps its scans, which preserves the
  /// pre-snapshot paths (tests, oracles, incremental bases) untouched.
  const TopicIndex* TopicIndexFor(const Graph& g, const TopicIndexOptions& limits);

  /// Topic-index builds this context triggered, and the seeding tallies
  /// reported by AddTopicStats (see TopicSeedStats in candidates.h).
  size_t topic_index_builds() const { return topic_index_builds_; }
  size_t posting_hits() const { return posting_hits_; }
  size_t seed_scan_fallbacks() const { return seed_scan_fallbacks_; }

  void AddTopicStats(size_t posting_hits, size_t scan_fallbacks) {
    posting_hits_ += posting_hits;
    seed_scan_fallbacks_ += scan_fallbacks;
  }

  /// Makes workers [0, num_workers) usable, each sized for n nodes. Must be
  /// called before Buffers() — in particular before fanning out, since
  /// growing the worker list from inside workers would race.
  void EnsureBuffers(size_t num_workers, size_t n);

  /// Scratch buffers of `worker` (EnsureBuffers must have covered it).
  BfsBuffers& Buffers(size_t worker) { return buffers_[worker]; }

  /// Reusable counter arrays: `count` arrays of `n` zeroed int32s.
  /// `pool_index` selects an independent family (0 and 1), so dual
  /// simulation can hold its forward and backward counters simultaneously.
  std::vector<std::vector<int32_t>>& Counters(size_t pool_index, size_t count, size_t n);

  /// The seeding thread pool. Grow-only: an existing pool with at least
  /// `num_workers` workers is reused as-is (dispatch with an explicit
  /// active count via ParallelChunks); a larger request replaces it. This
  /// keeps the per-query path free of thread spawn/join churn even when
  /// candidate-list sizes (and therefore SeedWorkers) vary per pattern node.
  ThreadPool& Pool(size_t num_workers);

  /// Worker count for a seeding phase over `work_items` units.
  /// requested == 1 forces the serial path; requested == 0 resolves to
  /// hardware_concurrency and is additionally capped so each worker gets a
  /// meaningful amount of work; an explicit requested > 1 is honoured (only
  /// capped by work_items) so tests can force the parallel path on small
  /// inputs.
  size_t SeedWorkers(uint32_t requested, size_t work_items) const;

 private:
  /// Bound published snapshot (nullptr = unbound, private slots serve).
  SnapshotPtr snapshot_;

  const Graph* snapshot_graph_ = nullptr;
  uint64_t snapshot_uid_ = 0;
  uint64_t snapshot_version_ = 0;
  std::unique_ptr<Csr> csr_;
  size_t snapshot_builds_ = 0;

  std::unique_ptr<KhopIndex> ball_index_;
  const Graph* ball_graph_ = nullptr;
  uint64_t ball_uid_ = 0;
  uint64_t ball_version_ = 0;
  BallIndexOptions ball_limits_;
  /// Smallest depth whose build failed under the current key (0 = none):
  /// deeper builds can only be bigger, so they are refused without retrying.
  Distance ball_failed_depth_ = 0;
  /// Matcher runs observed against the current key (drives deferred build).
  size_t ball_key_uses_ = 0;
  size_t ball_index_builds_ = 0;
  size_t ball_hits_ = 0;
  size_t bfs_fallbacks_ = 0;

  size_t topic_index_builds_ = 0;
  size_t posting_hits_ = 0;
  size_t seed_scan_fallbacks_ = 0;

  std::deque<BfsBuffers> buffers_;  // deque: stable addresses across growth
  std::array<std::vector<std::vector<int32_t>>, 2> counters_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace expfinder

#endif  // EXPFINDER_MATCHING_MATCH_CONTEXT_H_
