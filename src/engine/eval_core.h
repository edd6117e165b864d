// The stateless evaluation core of the query engine (ISSUE 6): everything
// needed to answer "evaluate pattern Q against published state S under
// overrides O" as a pure function, with no mutable engine state in sight.
//
// The split mirrors the paper's architecture (§II, Fig. 2 separates the
// matching computation from the store it runs over):
//
//   * EngineSnapshot is one published, immutable engine state — the graph
//     snapshot, the frozen compressed view (when current at publish time),
//     and the materialized relations of every maintained query. Handles are
//     shared_ptr<const>: readers pin one and evaluate against it lock-free,
//     concurrently with writers publishing successors.
//   * EvalCore owns only configuration (EngineOptions + the planner) and is
//     const end to end: plan, short-circuit, run the one matcher on the
//     compressed view or the graph, decompress — a pure function of
//     (snapshot, pattern, overrides). Any number of threads may call it
//     concurrently, each with its own MatchContext pair.
//
// QueryEngine is the writer (incremental maintainers, compression,
// publishing); ExpFinderService owns the one EvalCore and the result cache
// and serves every read through a pinned EngineSnapshot and this core.

#ifndef EXPFINDER_ENGINE_EVAL_CORE_H_
#define EXPFINDER_ENGINE_EVAL_CORE_H_

#include <atomic>
#include <memory>
#include <optional>
#include <unordered_map>

#include "src/compression/compressed_graph.h"
#include "src/engine/planner.h"
#include "src/graph/graph_snapshot.h"
#include "src/matching/match_context.h"
#include "src/matching/match_relation.h"
#include "src/query/pattern.h"
#include "src/util/result.h"
#include "src/util/timer.h"

namespace expfinder {

/// Cache key combining the pattern's canonical fingerprint (condition order
/// within a node does not distinguish queries — see
/// Pattern::CanonicalFingerprint) with the semantics; keys both the
/// service's result cache and EngineSnapshot::maintained, so a cached and
/// a maintained answer agree on what "the same query" means. (Graph
/// version is *not* part of this key — ResultCache folds it in itself; see
/// result_cache.h.)
uint64_t QueryCacheKey(const Pattern& q, MatchSemantics semantics);

/// \brief How an uncached evaluation produced its relation.
enum class EvalPath { kPlannerShortCircuit, kCompressed, kDirect };

/// \brief Per-call evaluation overrides (the service layer's per-request
/// knobs). Absent fields fall back to the core's EngineOptions.
struct EvalOverrides {
  std::optional<uint32_t> match_threads;
  /// Per-call ball-index participation; absent = EngineOptions::ball_index.
  /// Disabling never changes the relation — only the traversal cost — and a
  /// request that disables it does not invalidate the cached index.
  std::optional<bool> use_ball_index;
  /// Per-call topic-index participation; absent = EngineOptions::topic_index.
  /// Same contract as use_ball_index: never changes the relation.
  std::optional<bool> use_topic_index;
  /// Cooperative cancellation flag, polled at evaluation stage boundaries
  /// (after planning, before each matcher run, before decompression). When
  /// it reads true the evaluation stops with Status::Cancelled at the next
  /// boundary; a running fixpoint is never preempted mid-stage. Null =
  /// not cancellable.
  const std::atomic<bool>* cancelled = nullptr;
  /// Deadline enforcement at the same stage boundaries: with `timer` set
  /// and `time_budget_ms` > 0, a boundary reached after the budget elapsed
  /// fails the evaluation with Status::DeadlineExceeded. The timer is the
  /// caller's, so the budget covers the request's whole life (queue wait
  /// included), not just this call.
  const Timer* timer = nullptr;
  double time_budget_ms = 0.0;
};

/// \brief Engine configuration.
struct EngineOptions {
  /// Read by ExpFinderService, which owns the only result cache.
  bool use_cache = true;
  size_t cache_capacity = 32;
  /// Build and query a compressed graph when the pattern is compatible.
  bool use_compression = false;
  CompressionSchema compression_schema{true, {"experience"}};
  /// Worker threads for the matchers' parallel seeding phase
  /// (0 = hardware_concurrency, 1 = serial; results are identical either
  /// way — see MatchOptions::num_threads).
  uint32_t match_threads = 0;
  /// Ball-index participation and memory caps for the matchers (see
  /// khop_index.h); the incremental maintainers BFS the live graph and
  /// ignore it. Relations are identical with the index on, off, or capped
  /// into BFS fallback.
  BallIndexOptions ball_index;
  /// Topic inverted-index participation for text-predicate seeding (see
  /// index/topic_index.h). Relations are identical with the index on, off,
  /// or capped into scan fallback.
  TopicIndexOptions topic_index;
};

/// \brief One published, immutable engine state: everything a read needs,
/// frozen together at a version. Produced by QueryEngine::Publish();
/// readers pin the handle and evaluate lock-free for as long as they hold
/// it.
struct EngineSnapshot {
  /// The published graph (never null on a published snapshot).
  SnapshotPtr graph;
  /// The compressed view, frozen at publish — only attached when
  /// compression was enabled *and* current (source_version == version) at
  /// publish time, so its compatibility with the graph needs no runtime
  /// version check. Null otherwise.
  std::shared_ptr<const CompressedGraph> compressed;
  /// Snapshot over `compressed`'s Gc (the compressed matchers and their
  /// context bind to this); null iff `compressed` is.
  SnapshotPtr compressed_graph;
  /// Materialized relations of every maintained query, keyed by
  /// QueryCacheKey — a maintained read is a map lookup + relation copy,
  /// never a peek at live maintainer state.
  std::unordered_map<uint64_t, MatchRelation> maintained;
  /// Graph version this snapshot publishes (== graph->version()).
  uint64_t version = 0;
  /// Engine-state sequence number: bumped by every engine mutation,
  /// including those that leave the graph version alone (registering a
  /// maintained query, compressing). Distinguishes republishes.
  uint64_t engine_seq = 0;

  /// The maintained relation for `key`, or nullptr.
  const MatchRelation* Maintained(uint64_t key) const {
    auto it = maintained.find(key);
    return it == maintained.end() ? nullptr : &it->second;
  }
};

/// \brief Stateless, const evaluation core: plan + dispatch + match +
/// decompress over one pinned EngineSnapshot. Thread-safe by construction —
/// it holds configuration only; all scratch comes in through the contexts.
class EvalCore {
 public:
  explicit EvalCore(const EngineOptions& options)
      : options_(options), planner_(true) {}

  const EngineOptions& options() const { return options_; }

  /// Evaluates Q against `snap` under the chosen semantics. Pure function
  /// of (snap, q, overrides) — consults no cache and no maintained state
  /// (the service checks those first) and updates no stats;
  /// `path` reports how the relation was produced. Each concurrent call
  /// needs contexts no other call is using (`ctx` evaluates over the graph,
  /// `compressed_ctx` over Gc); both are bound to the snapshot's handles
  /// for the duration.
  Result<MatchRelation> Evaluate(const EngineSnapshot& snap, const Pattern& q,
                                 MatchSemantics semantics,
                                 const EvalOverrides& overrides, MatchContext* ctx,
                                 MatchContext* compressed_ctx, EvalPath* path) const;

 private:
  EngineOptions options_;
  Planner planner_;
};

}  // namespace expfinder

#endif  // EXPFINDER_ENGINE_EVAL_CORE_H_
