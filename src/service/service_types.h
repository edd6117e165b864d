// The typed request/response surface of the ExpFinder serving API (paper
// §II, Fig. 2: the query engine behind a GUI that many analysts hit
// concurrently). A whole request — pattern, semantics, ranking, priority,
// and per-request knobs — is one value; submission returns a QueryTicket
// (a future-like handle), and the response carries the shared immutable
// answer plus how it was served and what it cost.

#ifndef EXPFINDER_SERVICE_SERVICE_TYPES_H_
#define EXPFINDER_SERVICE_SERVICE_TYPES_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/engine/eval_core.h"
#include "src/engine/result_cache.h"
#include "src/ranking/metrics.h"
#include "src/ranking/social_impact.h"
#include "src/replication/fleet.h"

namespace expfinder {

/// \brief Admission priority of a request. Strict: a queued higher-priority
/// request is always dequeued before any lower-priority one; within one
/// priority the queue is FIFO. Priority affects queue order only — it never
/// preempts a running evaluation.
enum class QueryPriority : uint8_t {
  /// Bulk/analytics work that should yield to everything else.
  kBackground = 0,
  /// The default.
  kNormal = 1,
  /// Latency-sensitive interactive queries.
  kInteractive = 2,
};

inline constexpr size_t kNumQueryPriorities = 3;

/// Stable lower-case name ("background", "normal", "interactive").
std::string_view QueryPriorityName(QueryPriority priority);

/// \brief One expert-finding request: everything the service needs to
/// answer, as a single value.
struct QueryRequest {
  /// The pattern query (required; must Validate()).
  Pattern pattern;
  /// Matching semantics. Dual simulation is never served from the
  /// compressed graph or from maintained bounded-simulation state.
  MatchSemantics semantics = MatchSemantics::kBoundedSimulation;
  /// Admission-queue priority (see QueryPriority). A cache hit that Submit
  /// completes inline never enters the queue, so its priority is unused.
  QueryPriority priority = QueryPriority::kNormal;
  /// When set, the response carries the top-K ranked output-node matches.
  std::optional<size_t> top_k;
  /// Ranking metric used when top_k is set. A value outside the enum is
  /// refused at Submit with InvalidArgument.
  RankingMetric metric = RankingMetric::kSocialImpact;
  /// Per-request cache override; absent = the service's configured default.
  std::optional<bool> use_cache;
  /// Per-request matcher seeding threads; absent = engine default
  /// (see EngineOptions::match_threads). A value above the hardware thread
  /// count (ThreadPool::ResolveThreads(0)) is refused at Submit with
  /// InvalidArgument.
  std::optional<uint32_t> match_threads;
  /// Free-text expertise terms — the "find experts about X" entry point.
  /// Tokenized (TopicTokens) and compiled into conjunctive
  /// `* has_token "<token>"` predicates on the pattern's output node, so the
  /// served relation is exactly M(Q', G) for the compiled pattern Q' — every
  /// stage (evaluation, caching, ranking, as_of serving) sees Q'. Seeding
  /// draws candidates from the topic inverted index when built (see
  /// index/topic_index.h; identical answers either way). With
  /// metric == kTopicFusion the ranked list orders by fused TF-IDF topic
  /// relevance + structure (ranking/fusion.h) instead of structure alone.
  std::vector<std::string> topic_terms;
  /// Pin the evaluation to a specific published graph version instead of
  /// the current epoch. Served from the service's retained-snapshot ring
  /// (ServiceOptions::retained_snapshots): the relation is exactly
  /// M(Q, G@as_of_version) no matter how many Mutates landed since. A
  /// version no longer retained (evicted, or never published) fails the
  /// request with Status::NotFound. Absent = the current epoch.
  std::optional<uint64_t> as_of_version;
  /// Bounded-staleness floor for replica-routed reads (read-your-writes:
  /// pass the graph_version a previous response — or the version observed
  /// after a Mutate — reported). The read is served from a snapshot with
  /// version >= min_version, waiting up to
  /// ReplicationOptions::max_staleness_wait_ms for a replica to catch up;
  /// if none does, the service falls back to the primary epoch (when
  /// fallback_to_primary) or fails with Status::DeadlineExceeded. With
  /// replication off the primary epoch either satisfies the floor
  /// immediately or the request fails — no waiting. Mutually exclusive with
  /// as_of_version (a floor and an exact pin contradict each other): a
  /// request with both is refused at Submit with InvalidArgument.
  /// Absent/0 = any version (the freshest available snapshot).
  std::optional<uint64_t> min_version;
  /// Soft time budget in milliseconds, counted from Submit (queue wait
  /// included); 0 = unlimited. Best-effort: checked when the request is
  /// dequeued and at evaluation stage boundaries, never preemptively inside
  /// a running fixpoint. A budget that expires while the request is still
  /// queued fails it with Status::DeadlineExceeded without ever touching
  /// the engine (a warm cache hit is still served — it costs no
  /// evaluation — and so is its memoized ranked list, which costs no
  /// ranking).
  double time_budget_ms = 0.0;
};

/// \brief The answer to one QueryRequest.
struct QueryResponse {
  /// The match relation + result graph, shared and immutable (cache hits
  /// return the same object the original evaluation produced), plus the
  /// ranked lists memoized on it (QueryAnswer::ranked_lists).
  std::shared_ptr<const QueryAnswer> answer;
  /// Top-K ranked matches; filled iff the request set top_k. This
  /// response's own copy: the prefix of the answer's memoized list when it
  /// covers K, else ranked for this request (and then offered to the memo).
  /// Either way it equals TopKMatchesWith / TopKTopicFusion over
  /// `answer->result_graph`.
  std::vector<RankedMatch> ranked;
  /// Which serving path produced `answer`.
  ServingPath path = ServingPath::kDirect;
  /// Graph version the answer is consistent with (snapshot isolation: the
  /// relation is exactly M(Q, G@graph_version)).
  uint64_t graph_version = 0;
  /// Time spent in the admission queue before a worker picked the request
  /// up; 0 for a cache hit that Submit completed itself.
  double queue_ms = 0.0;
  /// Wall time from Submit to completion, end to end (queue wait included).
  double eval_ms = 0.0;
};

/// \brief Shared state behind a QueryTicket. Internal to the service layer;
/// user code holds QueryTickets, never TicketStates.
struct TicketState {
  std::mutex mu;
  std::condition_variable cv;
  /// Set exactly once, before `done`; immutable once engaged (readers
  /// copy).
  std::optional<Result<QueryResponse>> result;  // guarded by mu until done
  bool done = false;                            // guarded by mu
  /// Invoked exactly once with the final result (on the completing thread,
  /// or inline when registered after completion).
  std::function<void(const Result<QueryResponse>&)> callback;  // guarded by mu
  /// Cooperative cancellation flag, polled lock-free at stage boundaries.
  std::atomic<bool> cancelled{false};
};

/// Publishes `result` on the ticket: stores it, runs the completion
/// callback (if any) on the calling thread, then releases waiters.
void CompleteTicket(const std::shared_ptr<TicketState>& state,
                    Result<QueryResponse> result);

/// \brief Move-only handle to one submitted request — the future half of
/// ExpFinderService::Submit. All methods are thread-safe; the ticket may
/// outlive the service (a shutdown completes every pending ticket as
/// Cancelled).
class QueryTicket {
 public:
  /// An empty ticket (valid() == false); Submit returns engaged ones.
  QueryTicket() = default;
  explicit QueryTicket(std::shared_ptr<TicketState> state)
      : state_(std::move(state)) {}

  QueryTicket(QueryTicket&&) = default;
  QueryTicket& operator=(QueryTicket&&) = default;
  QueryTicket(const QueryTicket&) = delete;
  QueryTicket& operator=(const QueryTicket&) = delete;

  bool valid() const { return state_ != nullptr; }

  /// True once the request reached a terminal state (response or error).
  bool done() const;

  /// Blocks until the request completes.
  void Wait() const;

  /// Waits up to `timeout_ms` (0 = just poll); returns the result when the
  /// request completed in time, std::nullopt on timeout. Repeatable — the
  /// result is copied out, not consumed.
  std::optional<Result<QueryResponse>> TryGet(double timeout_ms) const;

  /// Wait() + copy of the result.
  Result<QueryResponse> Get() const;

  /// Requests cooperative cancellation: a still-queued request completes
  /// as Cancelled without touching the engine (when it is dequeued — on a
  /// paused service that happens at Resume() or destruction, so Wait()
  /// after Cancel() can still block until then); a running evaluation
  /// stops at its next stage boundary. Returns true when the request had
  /// not yet completed (the cancel may take effect), false when it
  /// already had (the existing result stands). Idempotent.
  bool Cancel();

  /// Registers a completion callback, invoked exactly once with the final
  /// result: on the completing thread (before waiters already blocked in
  /// Wait()/Get() are released), or inline right here when the ticket is
  /// already done. At most one callback per ticket. The callback runs on a
  /// serving worker, or on the caller's thread for a ticket Submit already
  /// completed (a validation failure, a full queue, or a cache hit) —
  /// keep it cheap, and never block it on other tickets of the same
  /// service.
  void OnComplete(std::function<void(const Result<QueryResponse>&)> callback);

  /// The underlying shared state (service-internal).
  const std::shared_ptr<TicketState>& state() const { return state_; }

 private:
  std::shared_ptr<TicketState> state_;
};

/// Number of buckets in the queue-latency histogram: bucket i counts
/// requests whose queue wait fell in [2^(i-1), 2^i) milliseconds (bucket 0:
/// < 1 ms), with the last bucket catching everything longer.
inline constexpr size_t kQueueLatencyBuckets = 12;

/// Bucket index for one observed queue latency.
size_t QueueLatencyBucket(double queue_ms);

/// \brief Cumulative service telemetry (a plain snapshot).
///
/// Every scalar counter is listed once more, in kServiceCounters below: the
/// service keeps one live atomic per entry, and stats() and ToString() loop
/// over the list. The gauges (`queued` and its lanes, `replicas`, the
/// queue-latency histogram) are not in it.
///
/// Every submitted request lands in exactly one terminal counter, bumped
/// once when its ticket completes by the one function that classifies
/// requests (ExpFinderService::TerminalCounter), from the serving path that
/// produced an answer, if any, and the final status:
///   * a request with an answer counts under its serving path (cache_hits,
///     maintained_hits, planner_short_circuits, compressed_evals,
///     direct_evals), even if a later stage (ranking, a post-answer
///     deadline or cancel) fails it;
///   * without an answer, Cancelled (queued, at shutdown, or at an
///     evaluation stage boundary) counts in `cancelled`;
///   * Unavailable (the replica fleet was down or unrecoverable and the
///     primary could not cover the read — "route away", vs a `rejected`
///     deadline miss, "waited and lost") counts in `unavailable`;
///   * ResourceExhausted (Submit found the admission queue full) counts in
///     `rejected_overload`;
///   * any other error (validation failure, queue or pre-eval deadline,
///     as_of version not retained, evaluation error) counts in `rejected`.
/// So
///   queries == cache_hits + maintained_hits + planner_short_circuits +
///              compressed_evals + direct_evals + rejected +
///              rejected_overload + cancelled + unavailable
/// holds whenever the service is quiescent.
struct ServiceStats {
  size_t queries = 0;
  size_t cache_hits = 0;
  size_t maintained_hits = 0;
  size_t planner_short_circuits = 0;
  size_t compressed_evals = 0;
  size_t direct_evals = 0;
  size_t rejected = 0;
  size_t rejected_overload = 0;
  size_t cancelled = 0;
  size_t unavailable = 0;
  size_t query_batches = 0;
  size_t batches_applied = 0;
  size_t updates_applied = 0;
  size_t nodes_added = 0;
  /// Snapshot lifecycle (none of these enter ClassifiedQueries):
  /// engine states published through the epoch pointer, reader pins of a
  /// published snapshot (one per served request — the acquire overhead the
  /// bench tracks), and snapshots evicted from the retained ring.
  size_t snapshots_published = 0;
  size_t snapshot_acquires = 0;
  size_t snapshots_retired = 0;
  /// Durability telemetry (ServiceOptions::durability; all zero when
  /// durability is off, none enter ClassifiedQueries):
  /// WAL records successfully appended (one per acknowledged Mutate /
  /// AddNode), checkpoints written, WAL records replayed at boot, failed
  /// durability operations (WAL append or checkpoint — the mutation stayed
  /// in memory but is NOT durable, and Mutate reported the error), and
  /// recoveries that detected unrecoverable loss (mid-log corruption,
  /// all-checkpoints-corrupt; the service degrades to the best available
  /// prefix and keeps serving instead of aborting).
  size_t wal_appends = 0;
  size_t checkpoints_written = 0;
  size_t recovered_records = 0;
  size_t durability_errors = 0;
  size_t data_loss_events = 0;
  /// Topic-index telemetry (none enter ClassifiedQueries): inverted-index
  /// builds paid by serving workers, pattern nodes seeded from a posting
  /// list, and pattern nodes with text predicates that scanned anyway.
  size_t topic_index_builds = 0;
  size_t posting_hits = 0;
  size_t seed_scan_fallbacks = 0;
  /// Replication telemetry (ServiceOptions::replication; all zero/empty
  /// when replication is off, none enter ClassifiedQueries): delta records
  /// the primary shipped into the in-process stream, delta records applied
  /// across the fleet, reads served from a replica snapshot, reads that
  /// wanted a replica but fell back to the primary epoch (no replica
  /// satisfied the staleness floor in time), and replica re-anchors
  /// (checkpoint/snapshot re-installs after a lost prefix or gap).
  size_t deltas_shipped = 0;
  size_t deltas_applied = 0;
  size_t routed_reads = 0;
  size_t routed_fallbacks = 0;
  size_t replica_rebootstraps = 0;
  /// Read-resilience ladder telemetry (PR 10; none enter ClassifiedQueries
  /// — each ladder rung is a routing attempt inside one read, and the read
  /// itself still lands in exactly one terminal counter): retries after a
  /// timed-out pick, floors served relaxed (bounded-stale), and watchdog
  /// activity across the fleet (quarantines entered, auto-restarts
  /// completed).
  size_t retried_reads = 0;
  size_t relaxed_reads = 0;
  size_t replica_quarantines = 0;
  size_t replica_auto_restarts = 0;
  /// Per-replica state at the moment stats() was taken (empty when
  /// replication is off); id order.
  std::vector<ReplicaStatus> replicas;
  /// Requests sitting in the admission queue right now (a gauge, not a
  /// cumulative counter; excluded from ClassifiedQueries).
  size_t queued = 0;
  /// `queued` split by priority lane, indexed by QueryPriority — one
  /// coherent snapshot (the lanes sum to a single instant's depth, though
  /// `queued` itself is sampled separately).
  std::array<size_t, kNumQueryPriorities> queued_by_priority{};
  /// Queue-wait distribution over every request served past admission (see
  /// QueueLatencyBucket): each one a worker dequeued, plus each cache hit
  /// Submit completed itself, which counts as 0 ms (bucket 0). Requests
  /// refused at Submit are not in it.
  std::array<size_t, kQueueLatencyBuckets> queue_latency_histogram{};

  /// Sum of the per-outcome counters; equals `queries` when quiescent.
  size_t ClassifiedQueries() const {
    return cache_hits + maintained_hits + planner_short_circuits +
           compressed_evals + direct_evals + rejected + rejected_overload +
           cancelled + unavailable;
  }

  std::string ToString() const;
};

/// \brief One scalar counter of ServiceStats: its field, the key ToString()
/// prints it under, and, for a fleet total, the ReplicaStatus field that
/// stats() adds up over `replicas`.
struct ServiceCounter {
  size_t ServiceStats::*field;
  std::string_view key;
  size_t ReplicaStatus::*replica_total = nullptr;
};

/// Every ServiceStats counter, in ToString() order. A new counter takes a
/// field above and an entry here.
inline constexpr ServiceCounter kServiceCounters[] = {
    {&ServiceStats::queries, "queries"},
    {&ServiceStats::cache_hits, "cache_hits"},
    {&ServiceStats::maintained_hits, "maintained_hits"},
    {&ServiceStats::planner_short_circuits, "planner_short_circuits"},
    {&ServiceStats::compressed_evals, "compressed_evals"},
    {&ServiceStats::direct_evals, "direct_evals"},
    {&ServiceStats::rejected, "rejected"},
    {&ServiceStats::rejected_overload, "rejected_overload"},
    {&ServiceStats::cancelled, "cancelled"},
    {&ServiceStats::unavailable, "unavailable"},
    {&ServiceStats::query_batches, "query_batches"},
    {&ServiceStats::batches_applied, "batches"},
    {&ServiceStats::updates_applied, "updates"},
    {&ServiceStats::nodes_added, "nodes_added"},
    {&ServiceStats::snapshots_published, "snapshots_published"},
    {&ServiceStats::snapshot_acquires, "snapshot_acquires"},
    {&ServiceStats::snapshots_retired, "snapshots_retired"},
    {&ServiceStats::wal_appends, "wal_appends"},
    {&ServiceStats::checkpoints_written, "checkpoints_written"},
    {&ServiceStats::recovered_records, "recovered_records"},
    {&ServiceStats::durability_errors, "durability_errors"},
    {&ServiceStats::data_loss_events, "data_loss_events"},
    {&ServiceStats::topic_index_builds, "topic_index_builds"},
    {&ServiceStats::posting_hits, "posting_hits"},
    {&ServiceStats::seed_scan_fallbacks, "seed_scan_fallbacks"},
    {&ServiceStats::deltas_shipped, "deltas_shipped"},
    {&ServiceStats::deltas_applied, "deltas_applied", &ReplicaStatus::deltas_applied},
    {&ServiceStats::routed_reads, "routed_reads", &ReplicaStatus::routed_reads},
    {&ServiceStats::routed_fallbacks, "routed_fallbacks"},
    {&ServiceStats::retried_reads, "retried_reads"},
    {&ServiceStats::relaxed_reads, "relaxed_reads"},
    {&ServiceStats::replica_rebootstraps, "replica_rebootstraps",
     &ReplicaStatus::rebootstraps},
    {&ServiceStats::replica_quarantines, "replica_quarantines",
     &ReplicaStatus::quarantines},
    {&ServiceStats::replica_auto_restarts, "replica_auto_restarts",
     &ReplicaStatus::auto_restarts},
};

inline constexpr size_t kNumServiceCounters = std::size(kServiceCounters);

/// Position of `field` in kServiceCounters. Evaluated at compile time only
/// (an unlisted field does not compile), so bumping a counter indexes an
/// array and never searches the list.
consteval size_t ServiceCounterIndex(size_t ServiceStats::*field) {
  for (size_t i = 0; i < kNumServiceCounters; ++i) {
    if (kServiceCounters[i].field == field) return i;
  }
  throw "not a kServiceCounters field";
}

}  // namespace expfinder

#endif  // EXPFINDER_SERVICE_SERVICE_TYPES_H_
