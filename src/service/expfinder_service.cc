#include "src/service/expfinder_service.h"

#include <algorithm>
#include <optional>
#include <string>

#include "src/index/topic_index.h"
#include "src/matching/result_graph.h"
#include "src/ranking/fusion.h"
#include "src/ranking/ranked_list_memo.h"
#include "src/ranking/topk.h"
#include "src/util/timer.h"

namespace expfinder {

namespace {

bool OverBudget(const QueryRequest& request, const Timer& timer) {
  return request.time_budget_ms > 0.0 &&
         timer.ElapsedMillis() > request.time_budget_ms;
}

bool CancelRequested(const PendingQuery& pending) {
  return pending.ticket->cancelled.load(std::memory_order_acquire);
}

/// Idle contexts retained between queries. Each WorkerContext holds two
/// contexts' scratch (BFS buffers, counter arrays, a parked seeding pool)
/// and pins the snapshots they last bound, so a burst wider than this
/// drops the surplus on release instead of keeping peak-concurrency memory
/// for the service's lifetime.
size_t IdleContextCap() {
  return std::max<size_t>(8, 2 * ThreadPool::ResolveThreads(0));
}

ServiceOptions ClampOptions(ServiceOptions options) {
  options.retained_snapshots = std::max<size_t>(1, options.retained_snapshots);
  return options;
}

}  // namespace

ExpFinderService::ContextLease::ContextLease(ExpFinderService* service)
    : service_(service) {
  {
    std::lock_guard<std::mutex> lock(service_->ctx_mu_);
    if (!service_->idle_contexts_.empty()) {
      ctx_ = std::move(service_->idle_contexts_.back());
      service_->idle_contexts_.pop_back();
    }
  }
  if (ctx_ == nullptr) ctx_ = std::make_unique<WorkerContext>();
}

ExpFinderService::ContextLease::~ContextLease() {
  std::lock_guard<std::mutex> lock(service_->ctx_mu_);
  if (service_->idle_contexts_.size() < IdleContextCap()) {
    service_->idle_contexts_.push_back(std::move(ctx_));
  }  // else: drop — frees the context's snapshots and parked pool threads
}

std::unique_ptr<DurableGraph> ExpFinderService::OpenDurability(
    Graph* g, const ServiceOptions& options, GraphRecoveryInfo* info,
    Status* status) {
  *info = GraphRecoveryInfo{};
  *status = Status::OK();
  if (options.durability.dir.empty()) return nullptr;
  auto durable = DurableGraph::Open(options.durability, g, info);
  if (!durable.ok()) {
    // Environmental bring-up failure: degrade to memory-only serving; the
    // caller reads durability_status() / stats().durability_errors.
    *status = durable.status();
    return nullptr;
  }
  return std::move(durable).value();
}

ExpFinderService::ExpFinderService(Graph* g, ServiceOptions options)
    : g_(g),
      options_(ClampOptions(std::move(options))),
      durable_(OpenDurability(g, options_, &recovery_info_, &durability_status_)),
      engine_(g, options_.engine),
      core_(options_.engine),
      cache_(options_.engine.use_cache ? options_.engine.cache_capacity : 0),
      queue_(options_.queue_capacity),
      paused_(options_.start_paused),
      executor_(std::make_unique<ThreadPool>(
          ThreadPool::ResolveThreads(options_.serving_threads) + 1)) {
  if (!durability_status_.ok()) {
    durability_errors_.fetch_add(1, std::memory_order_relaxed);
  }
  if (recovery_info_.data_loss) {
    data_loss_events_.fetch_add(1, std::memory_order_relaxed);
  }
  {
    // The first epoch: no request ever observes a null snapshot.
    std::lock_guard<std::mutex> writer(writer_mu_);
    PublishLocked();
  }
  if (options_.replication.num_replicas > 0) StartReplication();
}

ExpFinderService::~ExpFinderService() {
  shutdown_.store(true, std::memory_order_release);
  // Dispatch any drains a paused service still owes, then destroy the
  // executor, which drains it: every admitted request has a matching drain
  // task, which now observes shutdown_ and completes the ticket as
  // Cancelled. In-flight evaluations finish normally first.
  Resume();
  executor_.reset();
  // Serving workers are gone; now the fleet's appliers can be joined and
  // the source they fetch from released (member destruction order matches,
  // this just makes the joins explicit).
  if (fleet_ != nullptr) fleet_->Stop();
  if (delta_source_ != nullptr) delta_source_->Close();
}

void ExpFinderService::StartReplication() {
  InProcessDeltaSource::Options source_options;
  source_options.window_records = options_.replication.window_records;
  if (durable_ != nullptr) {
    source_options.wal_dir = options_.durability.dir;
    source_options.file_ops = options_.durability.file_ops;
  }
  uint64_t start_lsn = 0;
  {
    std::lock_guard<std::mutex> writer(writer_mu_);
    start_lsn = durable_ != nullptr ? durable_->next_lsn() : ship_lsn_;
  }
  delta_source_ = std::make_unique<InProcessDeltaSource>(
      std::move(source_options), start_lsn);
  DeltaSource* transport = delta_source_.get();
  if (options_.replication.delta_faults.any()) {
    // Chaos drills fetch through the fault decorator; Ship/Close still talk
    // to the real source underneath.
    faulty_source_ = std::make_unique<FaultyDeltaSource>(
        options_.replication.delta_faults, delta_source_.get());
    transport = faulty_source_.get();
  }

  FleetOptions fleet_options;
  fleet_options.num_replicas = options_.replication.num_replicas;
  fleet_options.routing = options_.replication.routing;
  fleet_options.fetch_batch = options_.replication.fetch_batch;
  fleet_options.poll_interval_ms = options_.replication.poll_interval_ms;
  if (durable_ != nullptr) {
    // Checkpoint + delta tail is the preferred bootstrap: no writer-lock
    // copy of the primary's graph.
    fleet_options.checkpoint_dir = options_.durability.dir;
    fleet_options.file_ops = options_.durability.file_ops;
  }
  fleet_options.engine = options_.engine;
  fleet_options.health = options_.replication.health;
  fleet_ = std::make_unique<ReplicaFleet>(std::move(fleet_options), transport,
                                          [this] { return BootstrapReplica(); });
  fleet_->Start();
}

ReplicaBootstrap ExpFinderService::BootstrapReplica() {
  // Full snapshot install: copy the primary graph and the matching delta
  // cursor as one coherent pair. The copy carries the version counter, so
  // the replica's numbering continues the primary's exactly. It shares the
  // primary's pages, sealed: the replica's applier and the primary's writer
  // each clone a page before writing it, so they never write one together.
  std::lock_guard<std::mutex> writer(writer_mu_);
  ReplicaBootstrap bootstrap;
  bootstrap.graph = *g_;
  bootstrap.next_lsn = durable_ != nullptr ? durable_->next_lsn() : ship_lsn_;
  return bootstrap;
}

std::shared_ptr<const EngineSnapshot> ExpFinderService::AcquireRouted(
    uint64_t min_version, AcquireOutcome* outcome) {
  const ReplicationOptions& r = options_.replication;
  const double budget = r.max_staleness_wait_ms;
  // Hedging caps the first, policy-routed wait at the hedge threshold; on
  // a miss the remaining budget funds a second read aimed straight at the
  // freshest replica. Unfloored reads never wait, so hedging them is moot.
  const bool hedge =
      r.hedge_delay_ms > 0.0 && r.hedge_delay_ms < budget && min_version > 0;
  Timer timer;
  AcquireOutcome last = AcquireOutcome::kTimeout;
  auto snap = fleet_->Acquire(min_version, hedge ? r.hedge_delay_ms : budget,
                              /*replica_idx=*/nullptr, &last);
  if (snap == nullptr && hedge && last == AcquireOutcome::kTimeout) {
    hedged_reads_.fetch_add(1, std::memory_order_relaxed);
    snap = fleet_->Acquire(min_version,
                           std::max(0.0, budget - timer.ElapsedMillis()),
                           /*replica_idx=*/nullptr, &last,
                           ReadRouting::kLeastLagged);
  }
  // Bounded retries while the fleet can still recover: a quarantined
  // replica's auto-restart (or a lagging one's catch-up) may land within a
  // retry window. kUnavailable skips this — only operator action helps.
  for (size_t attempt = 0;
       snap == nullptr && last == AcquireOutcome::kTimeout &&
       attempt < r.read_retries &&
       !shutdown_.load(std::memory_order_acquire);
       ++attempt) {
    retried_reads_.fetch_add(1, std::memory_order_relaxed);
    snap = fleet_->Acquire(min_version, r.retry_wait_ms,
                           /*replica_idx=*/nullptr, &last);
  }
  // Staleness relaxation: accept a bounded-stale replica rather than
  // abandoning the replica tier. A probe, not a wait — the budget is spent.
  // The response reports the true (relaxed) version served.
  if (snap == nullptr && min_version > 0 && r.relax_staleness_versions > 0) {
    const uint64_t floor = min_version > r.relax_staleness_versions
                               ? min_version - r.relax_staleness_versions
                               : 0;
    AcquireOutcome probe = AcquireOutcome::kTimeout;
    snap = fleet_->Acquire(floor, /*deadline_ms=*/0.0,
                           /*replica_idx=*/nullptr, &probe);
    if (snap != nullptr) {
      relaxed_reads_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  *outcome = snap != nullptr ? AcquireOutcome::kOk : last;
  return snap;
}

void ExpFinderService::ShipLocked(std::string payload) {
  if (delta_source_ == nullptr) return;
  const uint64_t lsn =
      durable_ != nullptr ? durable_->next_lsn() - 1 : ship_lsn_++;
  delta_source_->Ship(lsn, std::move(payload));
  deltas_shipped_.fetch_add(1, std::memory_order_relaxed);
}

void ExpFinderService::Resume() {
  size_t owed = 0;
  {
    std::lock_guard<std::mutex> lock(pause_mu_);
    paused_ = false;
    owed = pending_drains_;
    pending_drains_ = 0;
  }
  for (size_t i = 0; i < owed; ++i) {
    executor_->Submit([this] { DrainOne(); });
  }
}

QueryTicket ExpFinderService::Submit(QueryRequest request) {
  auto state = std::make_shared<TicketState>();
  QueryTicket ticket(state);
  queries_.fetch_add(1, std::memory_order_relaxed);
  Status valid = request.pattern.Validate();
  // The priority indexes a queue lane and the metric picks a scorer; values
  // cast from untrusted input must be refused here, not used out of range
  // there (an unknown metric would rank by node id with all-zero scores).
  if (valid.ok() && static_cast<size_t>(request.priority) >= kNumQueryPriorities) {
    valid = Status::InvalidArgument("unknown QueryPriority " +
                                    std::to_string(static_cast<int>(request.priority)));
  }
  if (valid.ok() && static_cast<size_t>(request.metric) >= kNumRankingMetrics) {
    valid = Status::InvalidArgument("unknown RankingMetric " +
                                    std::to_string(static_cast<int>(request.metric)));
  }
  if (!valid.ok()) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    CompleteTicket(state, std::move(valid));
    return ticket;
  }
  auto pending = std::make_unique<PendingQuery>();
  pending->request = std::move(request);
  pending->ticket = state;
  if (Status st = queue_.TryPush(std::move(pending)); !st.ok()) {
    // Backpressure: the queue is full, the caller learns right now.
    rejected_overload_.fetch_add(1, std::memory_order_relaxed);
    CompleteTicket(state, std::move(st));
    return ticket;
  }
  // One drain task per admission; the task pops the highest-priority entry,
  // which is not necessarily the one just pushed. A paused service banks
  // the drain for Resume().
  {
    std::lock_guard<std::mutex> lock(pause_mu_);
    if (paused_) {
      ++pending_drains_;
      return ticket;
    }
  }
  executor_->Submit([this] { DrainOne(); });
  return ticket;
}

void ExpFinderService::DrainOne() {
  std::unique_ptr<PendingQuery> pending = queue_.TryPop();
  if (pending == nullptr) return;  // drained by a concurrent task
  const double queue_ms = pending->submitted.ElapsedMillis();
  queue_latency_[QueueLatencyBucket(queue_ms)].fetch_add(1,
                                                         std::memory_order_relaxed);
  if (shutdown_.load(std::memory_order_acquire)) {
    cancelled_.fetch_add(1, std::memory_order_relaxed);
    CompleteTicket(pending->ticket, Status::Cancelled("service shutting down"));
    return;
  }
  if (CancelRequested(*pending)) {
    cancelled_.fetch_add(1, std::memory_order_relaxed);
    CompleteTicket(pending->ticket,
                   Status::Cancelled("cancelled in admission queue"));
    return;
  }
  // Queue-level deadline: a budget that expired while the request sat in
  // the queue fails it without ever touching the engine. Requests that may
  // be served from the cache proceed — a warm hit costs no evaluation and
  // is served regardless of the budget (Serve re-checks after a miss).
  if (OverBudget(pending->request, pending->submitted) &&
      !UseCache(pending->request)) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    CompleteTicket(pending->ticket,
                   Status::DeadlineExceeded(
                       "time budget exhausted in admission queue"));
    return;
  }
  CompleteTicket(pending->ticket, Serve(*pending, queue_ms));
}

Result<QueryResponse> ExpFinderService::Serve(const PendingQuery& pending,
                                              double queue_ms) {
  const QueryRequest& request = pending.request;
  const Timer& timer = pending.submitted;
  const bool use_cache = UseCache(request);
  // Topic terms compile into extra output-node predicates; everything below
  // — cache key, evaluation, result construction, ranking — serves the
  // compiled pattern, so a topic query is an ordinary pattern query to every
  // stage (including as_of serving and the cache, which key on it).
  Pattern compiled_pattern;
  if (!request.topic_terms.empty()) {
    if (!request.pattern.output_node().has_value()) {
      // CompileTopicTerms has no node to hang the predicates on; serving the
      // unfiltered relation would silently ignore the expertise filter.
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return Status::InvalidArgument(
          "topic_terms require a pattern with an output node");
    }
    compiled_pattern = CompileTopicTerms(request.pattern, request.topic_terms);
  }
  const Pattern& pattern =
      request.topic_terms.empty() ? request.pattern : compiled_pattern;
  const uint64_t key = QueryCacheKey(pattern, request.semantics);

  // Pin the snapshot this request evaluates against: the current epoch
  // (one atomic load), or a retained historical version for as_of reads.
  // From here on the request touches only frozen state — no lock is shared
  // with writers, so a long evaluation never delays a Mutate and a Mutate
  // never invalidates anything this request reads.
  std::shared_ptr<const EngineSnapshot> snap;
  if (request.as_of_version.has_value()) {
    if (request.min_version.has_value()) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return Status::InvalidArgument(
          "as_of_version and min_version are mutually exclusive (an exact "
          "pin already decides the version)");
    }
    snap = FindRetained(*request.as_of_version);
    if (snap == nullptr) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return Status::NotFound("as_of_version " +
                              std::to_string(*request.as_of_version) +
                              " is not retained (evicted or never published)");
    }
  } else if (fleet_ != nullptr) {
    // Route across the replica fleet through the resilience ladder; the
    // primary epoch is the final fallback (or, with fallback off, stays
    // reserved for writes and as_of reads).
    const uint64_t min_version = request.min_version.value_or(0);
    AcquireOutcome outcome = AcquireOutcome::kTimeout;
    snap = AcquireRouted(min_version, &outcome);
    if (snap != nullptr) {
      routed_reads_.fetch_add(1, std::memory_order_relaxed);
    } else {
      auto primary = epoch_.load(std::memory_order_acquire);
      if (options_.replication.fallback_to_primary &&
          primary->version >= min_version) {
        routed_fallbacks_.fetch_add(1, std::memory_order_relaxed);
        snap = std::move(primary);
      } else if (outcome == AcquireOutcome::kUnavailable) {
        // Fleet down or unrecoverable (and the primary cannot cover):
        // kUnavailable tells the caller to route away / retry elsewhere,
        // unlike a deadline miss where waiting longer could have worked.
        unavailable_.fetch_add(1, std::memory_order_relaxed);
        return Status::Unavailable(
            "replica fleet unavailable for min_version " +
            std::to_string(min_version) +
            (options_.replication.fallback_to_primary
                 ? " and the primary has not reached it"
                 : " (primary fallback disabled)"));
      } else {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        return Status::DeadlineExceeded(
            "no replica reached min_version " + std::to_string(min_version) +
            " within " +
            std::to_string(options_.replication.max_staleness_wait_ms) +
            " ms" +
            (options_.replication.fallback_to_primary
                 ? " and the primary has not either"
                 : " (primary fallback disabled)"));
      }
    }
  } else {
    snap = epoch_.load(std::memory_order_acquire);
    if (request.min_version.has_value() && snap->version < *request.min_version) {
      // Without replicas the primary epoch is as fresh as it gets: a floor
      // above it denotes a version that does not exist yet.
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return Status::DeadlineExceeded(
          "min_version " + std::to_string(*request.min_version) +
          " is beyond the current epoch (version " +
          std::to_string(snap->version) + ")");
    }
  }
  snapshot_acquires_.fetch_add(1, std::memory_order_relaxed);

  QueryResponse response;
  response.queue_ms = queue_ms;
  response.graph_version = snap->version;

  if (use_cache) {
    std::lock_guard<std::mutex> lock(cache_mu_);
    if (auto hit = cache_.Get(key, response.graph_version)) {
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      response.answer = std::move(hit);
      response.path = ServingPath::kCache;
    }
  }

  if (response.answer == nullptr) {
    MatchRelation matches;
    ContextLease lease(this);
    if (const MatchRelation* maintained = snap->Maintained(key)) {
      maintained_hits_.fetch_add(1, std::memory_order_relaxed);
      response.path = ServingPath::kMaintained;
      matches = *maintained;  // the snapshot's copy is frozen; ours mutates
    } else {
      if (CancelRequested(pending)) {
        cancelled_.fetch_add(1, std::memory_order_relaxed);
        return Status::Cancelled("cancelled before evaluation");
      }
      if (OverBudget(request, timer)) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        return Status::DeadlineExceeded("time budget exhausted before evaluation");
      }
      EvalOverrides overrides;
      overrides.match_threads = request.match_threads;
      overrides.use_ball_index = request.use_ball_index;
      overrides.use_topic_index = request.use_topic_index;
      overrides.cancelled = &pending.ticket->cancelled;
      overrides.timer = &timer;
      overrides.time_budget_ms = request.time_budget_ms;
      EvalPath path = EvalPath::kDirect;
      MatchContext& dctx = lease.ctx().direct;
      MatchContext& cctx = lease.ctx().compressed;
      // The lease's contexts accumulate across requests; publish this
      // request's topic-seeding telemetry as a before/after delta.
      const size_t builds0 = dctx.topic_index_builds() + cctx.topic_index_builds();
      const size_t hits0 = dctx.posting_hits() + cctx.posting_hits();
      const size_t falls0 = dctx.seed_scan_fallbacks() + cctx.seed_scan_fallbacks();
      auto evaluated = core_.Evaluate(*snap, pattern, request.semantics, overrides,
                                      &dctx, &cctx, &path);
      topic_index_builds_.fetch_add(
          dctx.topic_index_builds() + cctx.topic_index_builds() - builds0,
          std::memory_order_relaxed);
      posting_hits_.fetch_add(dctx.posting_hits() + cctx.posting_hits() - hits0,
                              std::memory_order_relaxed);
      seed_scan_fallbacks_.fetch_add(
          dctx.seed_scan_fallbacks() + cctx.seed_scan_fallbacks() - falls0,
          std::memory_order_relaxed);
      if (!evaluated.ok()) {
        // A cancel observed at an engine stage boundary is its own
        // terminal state; everything else (stage deadline, eval error)
        // counts as rejected.
        if (evaluated.status().IsCancelled()) {
          cancelled_.fetch_add(1, std::memory_order_relaxed);
        } else {
          rejected_.fetch_add(1, std::memory_order_relaxed);
        }
        return evaluated.status();
      }
      matches = std::move(evaluated).value();
      switch (path) {
        case EvalPath::kPlannerShortCircuit:
          planner_short_circuits_.fetch_add(1, std::memory_order_relaxed);
          response.path = ServingPath::kPlannerShortCircuit;
          break;
        case EvalPath::kCompressed:
          compressed_evals_.fetch_add(1, std::memory_order_relaxed);
          response.path = ServingPath::kCompressed;
          break;
        case EvalPath::kDirect:
          direct_evals_.fetch_add(1, std::memory_order_relaxed);
          response.path = ServingPath::kDirect;
          break;
      }
    }
    ResultGraph rg(snap->graph, pattern, matches, &lease.ctx().direct);
    response.answer = std::make_shared<const QueryAnswer>(
        QueryAnswer{std::move(matches), std::move(rg)});
    if (use_cache) {
      std::lock_guard<std::mutex> lock(cache_mu_);
      cache_.Put(key, response.graph_version, response.answer);
    }
  }

  if (request.top_k) {
    // Failures past this point keep the serving-path classification the
    // evaluation earned (the answer exists); only the ranked list is
    // refused.
    if (CancelRequested(pending)) {
      return Status::Cancelled("cancelled before ranking");
    }
    if (OverBudget(request, timer)) {
      return Status::DeadlineExceeded("time budget exhausted before ranking");
    }
    // Each ranking of an answer runs once: a later request whose k the
    // memoized list covers copies its prefix. A miss ranks with its own k,
    // outside every lock, and offers the list back to the memo. (Submit's
    // Validate guarantees the output node.)
    const RankedListKey rank_key = MakeRankedListKey(
        pattern.output_node().value_or(0), request.metric, request.topic_terms);
    RankedListMemo& memo = response.answer->ranked_lists;
    if (!memo.Find(rank_key, *request.top_k, &response.ranked)) {
      Result<std::vector<RankedMatch>> ranked =
          request.metric == RankingMetric::kTopicFusion
              ? TopKTopicFusion(response.answer->result_graph, pattern,
                                snap->graph->graph(), request.topic_terms,
                                *request.top_k)
              : TopKMatchesWith(response.answer->result_graph, pattern,
                                *request.top_k, request.metric);
      if (!ranked.ok()) return ranked.status();  // classification kept (see above)
      response.ranked = std::move(ranked).value();
      memo.Store(rank_key, *request.top_k, response.ranked);
    }
  }
  response.eval_ms = timer.ElapsedMillis();
  return response;
}

Result<QueryResponse> ExpFinderService::Query(const QueryRequest& request) {
  return Submit(request).Get();
}

std::vector<Result<QueryResponse>> ExpFinderService::QueryBatch(
    const std::vector<QueryRequest>& requests) {
  query_batches_.fetch_add(1, std::memory_order_relaxed);
  // Submit everything up front — the whole batch is in flight at once —
  // then collect in order. Each request fails or succeeds independently.
  std::vector<QueryTicket> tickets;
  tickets.reserve(requests.size());
  for (const QueryRequest& request : requests) tickets.push_back(Submit(request));
  std::vector<Result<QueryResponse>> results;
  results.reserve(tickets.size());
  for (QueryTicket& ticket : tickets) results.push_back(ticket.Get());
  return results;
}

void ExpFinderService::PublishLocked() {
  auto snap = engine_.Publish();
  auto current = epoch_.load(std::memory_order_relaxed);
  if (snap == current) return;  // nothing changed since the last publish
  epoch_.store(snap, std::memory_order_release);
  snapshots_published_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> ring(ring_mu_);
  retained_.push_back(std::move(snap));
  while (retained_.size() > options_.retained_snapshots) {
    retained_.pop_front();
    snapshots_retired_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::shared_ptr<const EngineSnapshot> ExpFinderService::FindRetained(
    uint64_t version) const {
  std::lock_guard<std::mutex> ring(ring_mu_);
  // Newest first: the common as_of read pins a recent version.
  for (auto it = retained_.rbegin(); it != retained_.rend(); ++it) {
    if ((*it)->version == version) return *it;
  }
  return nullptr;
}

std::vector<uint64_t> ExpFinderService::RetainedVersions() const {
  std::lock_guard<std::mutex> ring(ring_mu_);
  std::vector<uint64_t> versions;
  versions.reserve(retained_.size());
  for (const auto& snap : retained_) versions.push_back(snap->version);
  return versions;
}

Status ExpFinderService::Mutate(const UpdateBatch& batch) {
  std::lock_guard<std::mutex> writer(writer_mu_);
  EF_RETURN_NOT_OK(engine_.ApplyUpdates(batch));
  batches_applied_.fetch_add(1, std::memory_order_relaxed);
  updates_applied_.fetch_add(batch.size(), std::memory_order_relaxed);
  // WAL before the epoch swap: the batch is durable (per fsync policy)
  // before any reader can observe it and before the caller sees OK. On a
  // WAL failure the in-memory state still advances (and publishes — the
  // engine already applied) but the caller gets the error: the mutation is
  // NOT acknowledged durable and will not survive a crash.
  Status logged = Status::OK();
  // "Entered the log" is the ship condition, not "acknowledged durable": an
  // appended-but-unsynced record (fsync failure) has an LSN and replicas
  // must apply it to stay contiguous with later records; a torn append has
  // no LSN (and seals the log), so skipping it leaves no gap.
  bool entered_log = durable_ == nullptr;
  if (durable_ != nullptr) {
    const uint64_t lsn_before = durable_->next_lsn();
    logged = durable_->LogBatch(batch);
    entered_log = durable_->next_lsn() > lsn_before;
    if (logged.ok()) {
      wal_appends_.fetch_add(1, std::memory_order_relaxed);
    } else {
      durability_errors_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  PublishLocked();
  if (entered_log) ShipLocked(DurableGraph::EncodeBatch(batch));
  // Checkpoint only on the success path: after a failed append the WAL may
  // hold the record appended-but-unsynced (LSN advanced), and an immediate
  // checkpoint at that LSN would make the just-refused mutation durable.
  if (logged.ok()) MaybeCheckpointLocked();
  return logged;
}

Result<NodeId> ExpFinderService::AddNode(
    std::string_view label,
    const std::vector<std::pair<std::string, AttrValue>>& attrs) {
  std::lock_guard<std::mutex> writer(writer_mu_);
  auto id = engine_.AddNode(label, attrs);
  if (id.ok()) {
    nodes_added_.fetch_add(1, std::memory_order_relaxed);
    Status logged = Status::OK();
    bool entered_log = durable_ == nullptr;  // ship condition; see Mutate
    if (durable_ != nullptr) {
      const uint64_t lsn_before = durable_->next_lsn();
      logged = durable_->LogAddNode(*id, label, attrs);
      entered_log = durable_->next_lsn() > lsn_before;
      if (logged.ok()) {
        wal_appends_.fetch_add(1, std::memory_order_relaxed);
      } else {
        durability_errors_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    PublishLocked();
    if (entered_log) ShipLocked(DurableGraph::EncodeAddNode(*id, label, attrs));
    if (!logged.ok()) return logged;  // node exists in memory but is not durable
    MaybeCheckpointLocked();
  }
  return id;
}

void ExpFinderService::MaybeCheckpointLocked() {
  if (durable_ == nullptr || !durable_->CheckpointDue()) return;
  if (checkpoint_inflight_.exchange(true, std::memory_order_acq_rel)) return;
  // Checkpoint the just-published epoch: its frozen graph copy reflects
  // exactly the records logged so far, so serialization can run off the
  // writer lock without racing later mutations.
  auto snap = epoch_.load(std::memory_order_acquire);
  const uint64_t applied_lsn = durable_->next_lsn();
  auto work = [this, snap, applied_lsn] {
    Status st = durable_->Checkpoint(snap->graph->graph(), applied_lsn);
    if (st.ok()) {
      checkpoints_written_.fetch_add(1, std::memory_order_relaxed);
    } else {
      durability_errors_.fetch_add(1, std::memory_order_relaxed);
    }
    checkpoint_inflight_.store(false, std::memory_order_release);
  };
  if (options_.durability.background_checkpoints) {
    executor_->Submit(work);
  } else {
    work();
  }
}

Status ExpFinderService::CheckpointNow() {
  if (durable_ == nullptr) {
    return Status::InvalidArgument("durability is not enabled");
  }
  std::shared_ptr<const EngineSnapshot> snap;
  uint64_t applied_lsn;
  {
    // Pin a coherent (snapshot, lsn) pair; the write itself runs lock-free
    // against writers like the periodic checkpoint.
    std::lock_guard<std::mutex> writer(writer_mu_);
    snap = epoch_.load(std::memory_order_acquire);
    applied_lsn = durable_->next_lsn();
  }
  Status st = durable_->Checkpoint(snap->graph->graph(), applied_lsn);
  if (st.ok()) {
    checkpoints_written_.fetch_add(1, std::memory_order_relaxed);
  } else {
    durability_errors_.fetch_add(1, std::memory_order_relaxed);
  }
  return st;
}

Status ExpFinderService::RegisterMaintainedQuery(const Pattern& q,
                                                 MatchSemantics semantics) {
  std::lock_guard<std::mutex> writer(writer_mu_);
  EF_RETURN_NOT_OK(engine_.RegisterMaintainedQuery(q, semantics));
  PublishLocked();
  return Status::OK();
}

bool ExpFinderService::IsMaintained(const Pattern& q,
                                    MatchSemantics semantics) const {
  // Answered from the epoch snapshot — consistent with what a concurrent
  // Serve would observe, and lock-free like every other read.
  auto snap = epoch_.load(std::memory_order_acquire);
  return snap->Maintained(QueryCacheKey(q, semantics)) != nullptr;
}

Status ExpFinderService::CompressNow() {
  std::lock_guard<std::mutex> writer(writer_mu_);
  EF_RETURN_NOT_OK(engine_.CompressNow());
  PublishLocked();
  return Status::OK();
}

uint64_t ExpFinderService::version() const {
  return epoch_.load(std::memory_order_acquire)->version;
}

ServiceStats ExpFinderService::stats() const {
  ServiceStats s;
  s.queries = queries_.load(std::memory_order_relaxed);
  s.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  s.maintained_hits = maintained_hits_.load(std::memory_order_relaxed);
  s.planner_short_circuits = planner_short_circuits_.load(std::memory_order_relaxed);
  s.compressed_evals = compressed_evals_.load(std::memory_order_relaxed);
  s.direct_evals = direct_evals_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.rejected_overload = rejected_overload_.load(std::memory_order_relaxed);
  s.cancelled = cancelled_.load(std::memory_order_relaxed);
  s.query_batches = query_batches_.load(std::memory_order_relaxed);
  s.batches_applied = batches_applied_.load(std::memory_order_relaxed);
  s.updates_applied = updates_applied_.load(std::memory_order_relaxed);
  s.nodes_added = nodes_added_.load(std::memory_order_relaxed);
  s.snapshots_published = snapshots_published_.load(std::memory_order_relaxed);
  s.snapshot_acquires = snapshot_acquires_.load(std::memory_order_relaxed);
  s.snapshots_retired = snapshots_retired_.load(std::memory_order_relaxed);
  s.topic_index_builds = topic_index_builds_.load(std::memory_order_relaxed);
  s.posting_hits = posting_hits_.load(std::memory_order_relaxed);
  s.seed_scan_fallbacks = seed_scan_fallbacks_.load(std::memory_order_relaxed);
  s.wal_appends = wal_appends_.load(std::memory_order_relaxed);
  s.checkpoints_written = checkpoints_written_.load(std::memory_order_relaxed);
  s.recovered_records = recovery_info_.replayed_records;
  s.durability_errors = durability_errors_.load(std::memory_order_relaxed);
  s.data_loss_events = data_loss_events_.load(std::memory_order_relaxed);
  s.queued = queue_.size();
  s.queued_by_priority = queue_.LaneDepths();
  s.deltas_shipped = deltas_shipped_.load(std::memory_order_relaxed);
  s.routed_reads = routed_reads_.load(std::memory_order_relaxed);
  s.routed_fallbacks = routed_fallbacks_.load(std::memory_order_relaxed);
  s.retried_reads = retried_reads_.load(std::memory_order_relaxed);
  s.hedged_reads = hedged_reads_.load(std::memory_order_relaxed);
  s.relaxed_reads = relaxed_reads_.load(std::memory_order_relaxed);
  s.unavailable = unavailable_.load(std::memory_order_relaxed);
  if (fleet_ != nullptr) {
    s.deltas_applied = fleet_->TotalDeltasApplied();
    s.replica_rebootstraps = fleet_->TotalRebootstraps();
    s.replica_quarantines = fleet_->TotalQuarantines();
    s.replica_auto_restarts = fleet_->TotalAutoRestarts();
    s.replicas = fleet_->Replicas();
  }
  for (size_t i = 0; i < kQueueLatencyBuckets; ++i) {
    s.queue_latency_histogram[i] = queue_latency_[i].load(std::memory_order_relaxed);
  }
  return s;
}

}  // namespace expfinder
