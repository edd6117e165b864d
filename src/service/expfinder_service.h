// ExpFinderService: the concurrent serving facade and the only reader of
// the query engine (paper §II, Fig. 2 — a query engine serving many
// analysts at once; ROADMAP north star: heavy traffic from millions of
// users).
//
// Serving model — asynchronous submission over one queue:
//
//   * Submit(request) validates, compiles the request's topic terms and
//     computes its cache key, and probes the result cache. A hit whose
//     ranked list is memoized completes the ticket right there, on the
//     submitting thread: it evaluates and ranks nothing, so it never
//     waits for a worker. Every other request is admitted into a bounded
//     priority queue, and Submit returns its QueryTicket without evaluating
//     anything. Serving workers drain the queue (strict priority, FIFO
//     within a priority) and complete the ticket; callers Wait / TryGet /
//     Cancel or register a completion callback.
//   * Overload is explicit: when the queue is full, Submit completes the
//     ticket immediately with kResourceExhausted (counted in
//     ServiceStats::rejected_overload). A request whose time budget expires
//     while queued completes with kDeadlineExceeded without ever touching
//     the engine; a queued or running request can be cancelled
//     cooperatively (checked when dequeued and at evaluation stage
//     boundaries).
//   * Query / QueryBatch are thin synchronous wrappers over Submit — there
//     is exactly one serving path, so priorities, deadlines, admission
//     control, and stats apply uniformly. One function (FromCache) is the
//     cache step of both Submit and the workers.
//
// Concurrency model — epoch-published snapshots (ISSUE 6; replaces the
// PR 3 reader/writer lock):
//
//   * Writers (Mutate / AddNode / RegisterMaintainedQuery / CompressNow)
//     serialize on a plain mutex, apply their change to the engine, then
//     *publish*: the engine freezes an immutable EngineSnapshot (graph copy
//     sharing sealed pages + CSR, frozen compressed view, materialized
//     maintained relations) and
//     the service swaps it into an atomic epoch pointer. Publishing never
//     waits for readers.
//   * Readers pin the epoch snapshot (one atomic shared_ptr load) and
//     evaluate entirely against it — matching, maintained lookups, result
//     construction all read frozen state, so a reader NEVER blocks on the
//     writer lock and a writer never waits for evaluations to drain. The
//     graph version a response reports is exactly the version its relation
//     was computed against.
//   * The last ServiceOptions::retained_snapshots published snapshots stay
//     pinned in a ring; QueryRequest::as_of_version serves time-travel
//     reads from it (evicted versions fail with NotFound).
//   * Each worker borrows one MatchContext from a pool (contexts are
//     single-owner scratch; see match_context.h). The compressed matcher
//     binds it to the pinned snapshot's Gc and the result graph to its G,
//     each a pointer swap, and the lease unbinds it when the request ends,
//     so an idle context pins no version beyond the retained ring.
//   * The ResultCache holds each answer over a range of versions and a read
//     hits only an entry whose range covers its pinned version, so pinned
//     reads can never observe a newer relation. Mutate carries an entry
//     across its batch when the affected-area test (BatchMayChange,
//     incremental/update.h) proves the batch cannot change the answer: the
//     test runs under the writer lock but outside the cache lock, and the
//     ranges ending at the pre-batch version are extended before the new
//     epoch is published or shipped to replicas, so a read at the new
//     version finds them. AddNode extends nothing.
//
// Reads and writes are split between two objects: QueryEngine is the
// single-threaded writer (writers call its mutating operations, then
// Publish), and the service owns the one EvalCore, the result cache and
// every read-path counter — workers evaluate pinned snapshots through it.

#ifndef EXPFINDER_SERVICE_EXPFINDER_SERVICE_H_
#define EXPFINDER_SERVICE_EXPFINDER_SERVICE_H_

#include <array>
#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/engine/query_engine.h"
#include "src/replication/delta.h"
#include "src/replication/fault_source.h"
#include "src/replication/fleet.h"
#include "src/service/admission_queue.h"
#include "src/service/service_types.h"
#include "src/storage/durable_graph.h"
#include "src/util/thread_pool.h"

namespace expfinder {

/// \brief Read-scaling via an in-process replica fleet (PR 9; see
/// src/replication/). With `num_replicas` > 0 the service ships every
/// acknowledged mutation into an in-process delta stream, runs N replicas
/// that apply it in LSN order (each publishing its own snapshot), and
/// routes Submit reads across them — writes, as_of reads, and anything no
/// replica can satisfy stay on the primary. Every routed response still
/// reports the exact graph_version its relation was computed against, and
/// replica state at version V is bit-identical to the primary's at V.
struct ReplicationOptions {
  /// Replicas to run; 0 = replication off (every read serves from the
  /// primary epoch, exactly the pre-PR 9 behavior).
  size_t num_replicas = 0;
  /// How Submit reads pick a replica.
  ReadRouting routing = ReadRouting::kRoundRobin;
  /// Max deltas per replica fetch.
  size_t fetch_batch = 256;
  /// Applier poll interval when caught up.
  double poll_interval_ms = 2.0;
  /// In-memory delta window (records). Replicas lagging further catch up
  /// from the WAL tail when durability is on, or re-install a snapshot
  /// when it is off.
  size_t window_records = 1024;
  /// How long a read with QueryRequest::min_version waits for a replica to
  /// reach that version before falling back / failing.
  double max_staleness_wait_ms = 200.0;
  /// Serve from the primary epoch when no replica satisfies a read (fleet
  /// still bootstrapping, all replicas down, or min_version unreachable in
  /// time). Off = such reads fail instead — kUnavailable when the fleet is
  /// down/unrecoverable, kDeadlineExceeded when it was merely too slow —
  /// keeping evaluation off the primary. A cache hit evaluates nothing, so
  /// either way Submit serves it at the primary epoch when that meets
  /// min_version (see ExpFinderService::Submit).
  bool fallback_to_primary = true;

  // --- Read-resilience ladder (PR 10). A routed read that misses walks
  // these rungs in order: bounded retries -> staleness relaxation ->
  // primary fallback (above) -> error. Worst-case routing wait is
  // max_staleness_wait_ms + read_retries * retry_wait_ms.

  /// Extra Acquire attempts after the budgeted wait timed out while the
  /// fleet could still recover (quarantined replicas pending auto-restart).
  /// For a read with a min_version floor each retry waits up to
  /// retry_wait_ms more, so retries just lengthen its wait; a read without
  /// one never waits, so each retry is an immediate re-probe. 0 = no
  /// retries.
  size_t read_retries = 1;
  double retry_wait_ms = 20.0;
  /// > 0 enables bounded-staleness relaxation as the last replica rung: a
  /// read whose floor cannot be met in time accepts a replica within this
  /// many versions BELOW min_version (no extra waiting — a probe). The
  /// response still reports the exact version served, so read-your-writes
  /// callers can detect the relaxation. 0 = off (strict floors).
  uint64_t relax_staleness_versions = 0;
  /// Fault injection for the delta transport (tests / chaos drills): when
  /// any() the service wraps its delta stream in a FaultyDeltaSource with
  /// this plan. See replication/fault_source.h.
  DeltaFaultPlan delta_faults;
  /// Watchdog policy for the fleet's self-healing (quarantine thresholds,
  /// auto-restart backoff). See replication/health.h.
  ReplicaHealthOptions health;
};

/// \brief Service configuration: the composed engine's options plus the
/// service-level knobs.
struct ServiceOptions {
  /// Options of the engine and of evaluation. `use_cache`/`cache_capacity`
  /// configure the service's result cache, the only one.
  EngineOptions engine;
  /// Serving worker threads draining the admission queue — the maximum
  /// number of concurrently evaluating requests (0 = hardware_concurrency).
  /// Independent of EngineOptions::match_threads, which parallelizes
  /// *within* one matcher; serving workloads usually want match_threads = 1
  /// so requests, not seeding phases, use the cores.
  uint32_t serving_threads = 0;
  /// Admission-queue capacity: the maximum number of admitted-but-not-yet-
  /// served requests. A Submit beyond it fails fast with
  /// kResourceExhausted (backpressure), it never blocks.
  size_t queue_capacity = 256;
  /// How many published snapshots (including the current epoch) stay
  /// pinned for QueryRequest::as_of_version reads. Each retained snapshot
  /// holds its own CSR and the labels and label index; its adjacency and
  /// attribute pages are shared with the neighbouring epochs, and only the
  /// pages the writes in between touched are its own. Deliberately small;
  /// 1 = no time travel, current epoch only. Clamped to >= 1.
  size_t retained_snapshots = 4;
  /// Durability (ISSUE 7): when `durability.dir` is non-empty the service
  /// opens a DurableGraph there at construction — recovering any previous
  /// state into the caller's graph (checkpoint + WAL replay; a fresh
  /// directory instead checkpoints the caller's initial graph) — and from
  /// then on every Mutate/AddNode appends a WAL record *before* the new
  /// epoch is published and before the caller sees OK. Under
  /// FsyncPolicy::kEveryRecord an acknowledged mutation therefore survives
  /// any crash. Every `checkpoint_every_n_batches` records a checkpoint of
  /// the published snapshot is written (on a serving-executor thread by
  /// default) and covered WAL segments are dropped. Unrecoverable
  /// corruption at boot degrades: the service starts from the best
  /// available prefix and counts a data_loss_event rather than aborting.
  DurabilityOptions durability;
  /// Read scaling (PR 9): run `replication.num_replicas` in-process
  /// replicas fed by a delta stream of the WAL's mutation records and route
  /// Submit reads across them. See ReplicationOptions.
  ReplicationOptions replication;
  /// Open for admission but paused for serving: Submit queues requests
  /// (admission control, priorities, and Cancel all work) but nothing
  /// evaluates until Resume() — cache hits included, which a running
  /// service completes inside Submit. Useful for maintenance windows — warm
  /// the queue while a bulk load runs — and for deterministic tests of queue
  /// behavior. Query/QueryBatch on a paused service block until Resume(),
  /// and so does Wait() on any queued ticket, cancelled or not: queued
  /// terminal states (cancel, expired budget) are observed at dequeue.
  bool start_paused = false;
};

/// \brief Thread-safe expert-finding service with an asynchronous
/// Submit/ticket API, priority admission control, epoch-published
/// snapshot-isolated reads, and synchronous convenience wrappers.
class ExpFinderService {
 public:
  /// `g` must outlive the service; the service mutates it in Mutate/AddNode.
  /// No other code may mutate `g` while the service exists.
  explicit ExpFinderService(Graph* g, ServiceOptions options = {});

  /// Completes every still-pending ticket as Cancelled ("service shutting
  /// down"), then joins the serving workers. In-flight evaluations finish
  /// normally first. Tickets may outlive the service.
  ~ExpFinderService();

  ExpFinderService(const ExpFinderService&) = delete;
  ExpFinderService& operator=(const ExpFinderService&) = delete;

  const ServiceOptions& options() const { return options_; }

  /// Submits one request and returns its ticket. Costs validation, topic
  /// compilation, the cache key and at most one cache probe; never an
  /// evaluation or a ranking. The returned ticket is already complete on validation
  /// failure or a full queue (InvalidArgument / ResourceExhausted), and on
  /// a cache hit: a running service serves a request from the cache here,
  /// as a kCache response with queue_ms 0, when the answer is cached at the
  /// primary epoch, that epoch meets min_version, and the answer's memo
  /// covers top_k (or none is asked). Such a hit skips the priority lanes,
  /// and with replicas it is served at the primary and not routed. Paused
  /// services and as_of_version reads always queue. Thread-safe.
  QueryTicket Submit(QueryRequest request);

  /// Starts serving when the service was constructed with
  /// `start_paused = true`: every queued request becomes eligible for a
  /// worker, in priority order. Idempotent; a no-op on a running service.
  void Resume();

  /// Synchronous convenience: Submit(request) + Wait. Exactly the same
  /// serving path — a cache hit completes inside Submit, anything else
  /// passes through the admission queue and is served by a worker, so
  /// priorities, deadlines, and overload rejection apply identically.
  Result<QueryResponse> Query(const QueryRequest& request);

  /// Submits every request up front, then waits for all tickets; results
  /// are positionally aligned with `requests` and each request succeeds or
  /// fails independently. Responses of one batch are NOT guaranteed to
  /// share a graph version — each is individually snapshot-consistent, but
  /// a concurrent Mutate may land between two of them (pin a shared
  /// as_of_version to force one version across a batch). Concurrent
  /// QueryBatch calls interleave in the shared admission queue.
  std::vector<Result<QueryResponse>> QueryBatch(
      const std::vector<QueryRequest>& requests);

  /// Applies a batch of edge updates atomically and publishes the
  /// successor snapshot: validation failure changes nothing; on success
  /// maintained queries and the compressed graph are carried over and the
  /// new epoch becomes visible to subsequent reads. In-flight reads keep
  /// their pinned snapshot — a Mutate never waits for them.
  ///
  /// Durability failure (non-OK with durability enabled): the batch was
  /// still applied in memory and published — it is merely NOT acknowledged
  /// durable. It may nevertheless persist later (an appended-but-unsynced
  /// WAL record can reach disk; any later checkpoint captures the published
  /// graph), so an error-returned batch must not be blindly re-submitted:
  /// non-idempotent update sequences could apply twice after a recovery.
  Status Mutate(const UpdateBatch& batch);

  /// Adds a person to the network (no edges yet; connect via Mutate).
  Result<NodeId> AddNode(
      std::string_view label,
      const std::vector<std::pair<std::string, AttrValue>>& attrs = {});

  /// Registers Q as an incrementally maintained query (writer-side: the
  /// initial relation is computed under the writer lock, then published).
  Status RegisterMaintainedQuery(
      const Pattern& q,
      MatchSemantics semantics = MatchSemantics::kBoundedSimulation);
  bool IsMaintained(const Pattern& q,
                    MatchSemantics semantics = MatchSemantics::kBoundedSimulation) const;

  /// (Re)builds the compressed graph now (writer-side; no-op when current).
  Status CompressNow();
  /// The compressed graph, or nullptr when not built. The pointee is only
  /// stable while no Mutate/CompressNow runs — single-threaded inspection
  /// use only (readers evaluate against the frozen copy in their snapshot).
  const CompressedGraph* compressed() const { return engine_.compressed(); }

  /// The underlying graph. Reading it is safe while no Mutate/AddNode is in
  /// flight (e.g. single-threaded sections, display code); the service
  /// itself never hands it to request threads — they read pinned snapshots.
  const Graph& graph() const { return *g_; }

  /// Graph version of the current epoch snapshot (lock-free read).
  uint64_t version() const;

  /// Versions currently served for as_of_version reads, oldest first (the
  /// retained ring; the last entry is the current epoch).
  std::vector<uint64_t> RetainedVersions() const;

  /// Snapshot of the cumulative counters.
  ServiceStats stats() const;

  /// Whether durability is active (configured AND the directory opened).
  bool durable() const { return durable_ != nullptr; }

  /// What recovery found at construction (all-defaults when durability is
  /// off). `data_loss` true means the service is serving a degraded
  /// prefix; `detail` says why.
  const GraphRecoveryInfo& recovery_info() const { return recovery_info_; }

  /// Non-OK when durability was requested but could not be brought up
  /// (environmental failure — e.g. the directory cannot be created); the
  /// service then runs memory-only, exactly as if durability were off.
  const Status& durability_status() const { return durability_status_; }

  /// Writes a checkpoint of the current epoch snapshot right now (and
  /// truncates covered WAL segments). InvalidArgument when durability is
  /// off. Runs inline on the calling thread.
  Status CheckpointNow();

  /// The replica fleet, or nullptr when replication is off. Exposed for
  /// observability and the crash/catch-up admin hooks
  /// (StopReplica/RestartReplica); routing happens inside Submit.
  ReplicaFleet* fleet() { return fleet_.get(); }
  const ReplicaFleet* fleet() const { return fleet_.get(); }

  /// The fault-injecting transport decorator, or nullptr when replication
  /// is off or no fault plan was configured. Chaos drills use it to read
  /// injected-fault counters and to disarm the plan mid-run (SetPlan({})).
  FaultyDeltaSource* delta_faults() { return faulty_source_.get(); }

 private:
  /// RAII borrow of a worker's MatchContext from the free pool (creates one
  /// when the pool is empty, unbinds it and returns it on destruction).
  class ContextLease {
   public:
    explicit ContextLease(ExpFinderService* service);
    ~ContextLease();
    MatchContext& ctx() { return *ctx_; }

   private:
    ExpFinderService* service_;
    std::unique_ptr<MatchContext> ctx_;
  };

  /// Executor task paired with one admission: pops the highest-priority
  /// entry, handles queue-level terminal states (shutdown, cancellation,
  /// expired budget), and otherwise serves it and completes the ticket.
  void DrainOne();

  /// The read path of a queued request: pin a snapshot (epoch, replica, or
  /// as_of ring), cache probe, maintained lookup, EvalCore evaluation with
  /// cancellation/deadline checkpoints, ranking. Entirely lock-free against
  /// writers. `*served` receives the serving path once an answer exists (it
  /// stays set when a later stage fails the request); `queue_ms` is the
  /// admission wait already measured by DrainOne.
  Result<QueryResponse> Serve(const PendingQuery& pending, double queue_ms,
                              std::optional<ServingPath>* served);

  /// The cache step of every read, in Submit and in Serve: on a hit for
  /// `key` at `response->graph_version`, sets the answer and the kCache
  /// path and, for a ranked request, copies the answer's top-k memoized
  /// under `rank_key` when it covers k. Returns whether that completed the
  /// response.
  bool FromCache(const QueryRequest& request, uint64_t key,
                 const RankedListKey& rank_key, QueryResponse* response);

  /// Whether the service is paused (start_paused and no Resume() yet).
  bool Paused();

  /// The kServiceCounters index of one request's terminal counter (see
  /// ServiceStats): its serving path when an answer exists, else the one
  /// its status code names.
  static size_t TerminalCounter(std::optional<ServingPath> served, const Status& status);

  /// Adds `n` to the counter of ServiceStats field `kField`: one relaxed
  /// fetch_add at an index fixed at compile time.
  template <size_t ServiceStats::*kField>
  void Count(size_t n = 1) {
    static_assert(kServiceCounters[ServiceCounterIndex(kField)].replica_total == nullptr,
                  "a fleet total is summed from ReplicaStatus, not counted");
    counters_[ServiceCounterIndex(kField)].fetch_add(n, std::memory_order_relaxed);
  }

  /// Every request ends here: counts it in its one terminal counter, then
  /// completes its ticket (releasing waiters).
  void Finish(const std::shared_ptr<TicketState>& ticket, Result<QueryResponse> result,
              std::optional<ServingPath> served = std::nullopt);

  /// Publishes the engine's current state as the new epoch and pushes it
  /// into the retained ring (caller holds writer_mu_).
  void PublishLocked();

  /// The retained snapshot at `version`, or nullptr when evicted/unknown.
  std::shared_ptr<const EngineSnapshot> FindRetained(uint64_t version) const;

  /// Resolved per-request cache participation.
  bool UseCache(const QueryRequest& request) const {
    return request.use_cache.value_or(options_.engine.use_cache);
  }

  /// Opens the durability subsystem and recovers into `*g` (runs in the
  /// member-init list BEFORE the engine captures the graph). Returns null
  /// when durability is off or bring-up failed (`status`/`info` say why).
  static std::unique_ptr<DurableGraph> OpenDurability(Graph* g,
                                                      const ServiceOptions& options,
                                                      GraphRecoveryInfo* info,
                                                      Status* status);

  /// If a checkpoint is due and none is in flight, checkpoints the current
  /// epoch snapshot — on the executor by default, inline when
  /// durability.background_checkpoints is off. Caller holds writer_mu_.
  void MaybeCheckpointLocked();

  /// Brings up the delta source + replica fleet (ctor, after the first
  /// publish; no locks held).
  void StartReplication();

  /// The replica rungs of the read-resilience ladder: policy-routed
  /// acquire, bounded retries, staleness relaxation. Returns the snapshot
  /// or nullptr; `*outcome` reports the final miss kind (kTimeout vs
  /// kUnavailable) for the caller's error mapping.
  std::shared_ptr<const EngineSnapshot> AcquireRouted(uint64_t min_version,
                                                      AcquireOutcome* outcome);

  /// Full-snapshot bootstrap for a replica: copies the primary's graph and
  /// the matching delta cursor under the writer lock. Called from applier
  /// threads (fleet bootstrap when no usable checkpoint exists).
  ReplicaBootstrap BootstrapReplica();

  /// The commit path both writers share once the engine applied their
  /// change (caller holds writer_mu_, so records ship in LSN order): calls
  /// `encode` for the change's WAL record only when durability or
  /// replication is on, and appends the record when durable; runs
  /// `before_publish` if set (Mutate's cache extension); publishes the new
  /// epoch; ships the same bytes to the replicas when the record entered
  /// the log (or durability is off); and checkpoints when due, only after a
  /// successful append. Returns the append's status: non-OK means applied
  /// and published but not durable.
  Status CommitLocked(const std::function<std::string()>& encode,
                      const std::function<void()>& before_publish = {});

  /// Extends to the live graph's version every cache entry ending at
  /// `before`'s version whose answer `batch`, just applied to the live
  /// graph, provably cannot change (caller holds writer_mu_; runs the test
  /// outside cache_mu_).
  void ExtendCachedAnswersLocked(const EngineSnapshot& before, const UpdateBatch& batch);

  friend class ExpFinderServiceTestPeer;

  Graph* g_;
  ServiceOptions options_;

  /// Durability subsystem; null when off. Declared (and initialized)
  /// before engine_ so recovery rewrites *g_ before the engine ever reads
  /// it.
  GraphRecoveryInfo recovery_info_;
  Status durability_status_;
  std::unique_ptr<DurableGraph> durable_;

  /// Serializes writers (Mutate/AddNode/RegisterMaintainedQuery/
  /// CompressNow) and every non-const engine call. Readers never take it.
  std::mutex writer_mu_;
  QueryEngine engine_;  // guarded by writer_mu_; readers touch only
                        // pinned snapshots
  /// Evaluates every uncached, unmaintained read; const and shared by all
  /// workers.
  const EvalCore core_;

  /// The current published snapshot. Writers store (under writer_mu_),
  /// readers load and pin — lock-free on the read side.
  std::atomic<std::shared_ptr<const EngineSnapshot>> epoch_;

  /// Recently published snapshots, oldest first; back() == current epoch.
  /// Guarded by ring_mu_ (touched by publishes and as_of lookups only —
  /// current-epoch reads never take it).
  mutable std::mutex ring_mu_;
  std::deque<std::shared_ptr<const EngineSnapshot>> retained_;

  mutable std::mutex cache_mu_;
  ResultCache cache_;  // guarded by cache_mu_

  std::mutex ctx_mu_;
  std::vector<std::unique_ptr<MatchContext>> idle_contexts_;  // guarded by ctx_mu_

  /// Set by the destructor before draining: remaining queued requests
  /// complete as Cancelled instead of evaluating.
  std::atomic<bool> shutdown_{false};

  AdmissionQueue queue_;

  /// Pause state: while paused, admissions accumulate pending_drains_
  /// instead of dispatching executor tasks; Resume() dispatches them.
  std::mutex pause_mu_;
  bool paused_;                // guarded by pause_mu_
  size_t pending_drains_ = 0;  // guarded by pause_mu_

  /// At most one periodic checkpoint runs at a time; the flag is cleared
  /// by the checkpoint task itself.
  std::atomic<bool> checkpoint_inflight_{false};

  /// The live value of every kServiceCounters entry, by list position (the
  /// fleet totals' slots stay zero: stats() sums those from the replicas).
  std::array<std::atomic<size_t>, kNumServiceCounters> counters_{};
  std::array<std::atomic<size_t>, kQueueLatencyBuckets> queue_latency_{};

  /// Replication (null / unused when replication.num_replicas == 0).
  /// Declared before executor_ so destruction order is: executor (serving
  /// workers, which call fleet_->Acquire) drains first, then the fleet
  /// joins its appliers, then the (possibly fault-wrapped) source they
  /// fetch from dies.
  std::unique_ptr<InProcessDeltaSource> delta_source_;
  /// Fault-injecting decorator over delta_source_; null unless
  /// replication.delta_faults has any probability set. When present the
  /// fleet fetches through it.
  std::unique_ptr<FaultyDeltaSource> faulty_source_;
  std::unique_ptr<ReplicaFleet> fleet_;
  /// Delta cursor when durability is off (the WAL assigns LSNs otherwise);
  /// guarded by writer_mu_.
  uint64_t ship_lsn_ = 0;

  /// The serving executor: one Submit()ed drain task per admitted request.
  /// Declared last so it is destroyed (and drained) while every member it
  /// uses is still alive; sized serving_threads + 1 because a ThreadPool
  /// of size W has W - 1 background threads.
  std::unique_ptr<ThreadPool> executor_;
};

}  // namespace expfinder

#endif  // EXPFINDER_SERVICE_EXPFINDER_SERVICE_H_
