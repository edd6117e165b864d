// Per-reader scratch state reused across queries — the amortization layer
// of the matching hot path.
//
// Graph-derived indexes (the CSR, the k-hop ball index, the topic index)
// live on the published GraphSnapshot the context is bound to, shared by
// every reader of that version; the context owns only what is private to
// one evaluation at a time:
//
//   * BindSnapshot pins the snapshot the matchers read; BallIndexFor and
//     TopicIndexFor resolve its shared slots and attribute any build this
//     context pays to its telemetry.
//   * EnsureBuffers/Buffers provide one BfsBuffers per parallel seeding
//     worker (worker 0 doubles as the serial-path buffer).
//   * Counters provides the per-edge int32 counter arrays (two independent
//     pools, because dual simulation needs a forward and a backward family).
//   * Pool lazily owns the ThreadPool used for parallel seeding.
//
// A MatchContext is single-owner state: it must not be shared between
// threads, and at most one matcher may run against it at a time (the
// matchers themselves fan out internally via Pool()). The one-shot matcher
// overloads capture a snapshot and construct a fresh context per call.
// Concurrent callers give each worker its *own* context: the
// ExpFinderService keeps a pool of per-worker contexts and leases one to
// every in-flight query, so scratch never crosses threads.

#ifndef EXPFINDER_MATCHING_MATCH_CONTEXT_H_
#define EXPFINDER_MATCHING_MATCH_CONTEXT_H_

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "src/graph/bfs.h"
#include "src/graph/graph.h"
#include "src/graph/graph_snapshot.h"
#include "src/graph/khop_index.h"
#include "src/util/thread_pool.h"

namespace expfinder {

/// \brief Reusable matcher scratch, bound to one published snapshot at a
/// time.
class MatchContext {
 public:
  MatchContext() = default;
  MatchContext(const MatchContext&) = delete;
  MatchContext& operator=(const MatchContext&) = delete;

  /// Binds this context to a published GraphSnapshot, whose CSR and shared
  /// index slots the matchers then read. The context retains the handle,
  /// pinning the snapshot for as long as the binding lasts (a worker binds
  /// per request; the snapshot matcher overloads bind on entry). Binding
  /// nullptr unbinds.
  void BindSnapshot(SnapshotPtr snapshot) { snapshot_ = std::move(snapshot); }
  const SnapshotPtr& bound_snapshot() const { return snapshot_; }

  /// The bound snapshot's shared k-hop ball index at (at least) `depth`, or
  /// nullptr when the matcher must BFS instead (see GraphSnapshot::BallIndex
  /// for the deferred-build, failure-memo and grow-only policy). A build
  /// this call triggers runs on this context's seeding pool, created only
  /// then, and counts in ball_index_builds(). Requires a bound snapshot.
  const KhopIndex* BallIndexFor(Distance depth, const BallIndexOptions& limits,
                                uint32_t num_threads);

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
  /// topic_index_builds). An unbound context, or a call against any graph
  /// but the bound snapshot's, gets nullptr and the caller keeps its scans.
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
  /// Bound published snapshot (nullptr = unbound).
  SnapshotPtr snapshot_;

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
