#include "src/service/expfinder_service.h"

#include <algorithm>
#include <optional>
#include <string>

#include "src/incremental/update.h"
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

/// Idle contexts retained between queries. Each holds a worker's scratch
/// (BFS buffers, counter arrays, a parked seeding pool), so a burst wider
/// than this drops the surplus on release instead of keeping
/// peak-concurrency memory for the service's lifetime.
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
  if (ctx_ == nullptr) ctx_ = std::make_unique<MatchContext>();
}

ExpFinderService::ContextLease::~ContextLease() {
  // An idle context must not pin the snapshot of its last request: it
  // would outlive the retained ring, and the next bind would free it
  // inside another request.
  ctx_->BindSnapshot(nullptr);
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
    Count<&ServiceStats::durability_errors>();
  }
  if (recovery_info_.data_loss) {
    Count<&ServiceStats::data_loss_events>();
  }
  Count<&ServiceStats::recovered_records>(recovery_info_.replayed_records);
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
  AcquireOutcome last = AcquireOutcome::kTimeout;
  auto snap = fleet_->Acquire(min_version, r.max_staleness_wait_ms,
                              /*replica_idx=*/nullptr, &last);
  // Bounded retries while the fleet can still recover: a quarantined
  // replica's auto-restart (or a lagging one's catch-up) may land within a
  // retry window. kUnavailable skips this — only operator action helps.
  for (size_t attempt = 0;
       snap == nullptr && last == AcquireOutcome::kTimeout &&
       attempt < r.read_retries &&
       !shutdown_.load(std::memory_order_acquire);
       ++attempt) {
    Count<&ServiceStats::retried_reads>();
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
      Count<&ServiceStats::relaxed_reads>();
    }
  }
  *outcome = snap != nullptr ? AcquireOutcome::kOk : last;
  return snap;
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
  const Timer submitted;
  auto state = std::make_shared<TicketState>();
  QueryTicket ticket(state);
  Count<&ServiceStats::queries>();
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
  // match_threads sizes the leased context's seeding pool and one distance
  // array per worker; more workers than hardware threads buys nothing.
  if (valid.ok() && request.match_threads.has_value() &&
      *request.match_threads > ThreadPool::ResolveThreads(0)) {
    valid = Status::InvalidArgument(
        "match_threads " + std::to_string(*request.match_threads) + " exceeds the " +
        std::to_string(ThreadPool::ResolveThreads(0)) + " hardware threads");
  }
  if (valid.ok() && request.as_of_version.has_value() &&
      request.min_version.has_value()) {
    valid = Status::InvalidArgument(
        "as_of_version and min_version are mutually exclusive (an exact pin "
        "already decides the version)");
  }
  if (!valid.ok()) {
    Finish(state, std::move(valid));
    return ticket;
  }
  // Topic terms compile into extra output-node predicates, once, here;
  // every later stage (cache key, evaluation, result graph, ranking) serves
  // the compiled pattern, so a topic query is an ordinary pattern query to
  // each of them. Validate guaranteed the output node they hang on.
  if (!request.topic_terms.empty()) {
    request.pattern = CompileTopicTerms(request.pattern, request.topic_terms);
  }
  const uint64_t key = QueryCacheKey(request.pattern, request.semantics);
  // Validate guaranteed the output node; a topic-fusion key tokenizes the
  // terms, once, here.
  RankedListKey rank_key = MakeRankedListKey(request.pattern.output_node().value_or(0),
                                             request.metric, request.topic_terms);
  // A cache hit needs no worker: when the answer is cached at the version a
  // worker would read (the primary epoch, once it meets min_version; with
  // replicas too, since a hit evaluates nothing) and its memo covers top_k,
  // the ticket completes here. It skips the priority lanes and counts as a
  // 0 ms queue wait. A paused service queues every request, hits included,
  // and an as_of read queues so that a version evicted from the retained
  // ring stays NotFound even while a cache entry still covers it.
  if (UseCache(request) && !request.as_of_version.has_value() && !Paused()) {
    QueryResponse response;
    response.graph_version = version();
    if (response.graph_version >= request.min_version.value_or(0) &&
        FromCache(request, key, rank_key, &response)) {
      Count<&ServiceStats::snapshot_acquires>();
      queue_latency_[0].fetch_add(1, std::memory_order_relaxed);
      response.eval_ms = submitted.ElapsedMillis();
      Finish(state, std::move(response), ServingPath::kCache);
      return ticket;
    }
  }
  auto pending = std::make_unique<PendingQuery>();
  pending->request = std::move(request);
  pending->key = key;
  pending->rank_key = std::move(rank_key);
  pending->ticket = state;
  pending->submitted = submitted;
  if (Status st = queue_.TryPush(std::move(pending)); !st.ok()) {
    // Backpressure: the queue is full, the caller learns right now.
    Finish(state, std::move(st));
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
    Finish(pending->ticket, Status::Cancelled("service shutting down"));
    return;
  }
  if (CancelRequested(*pending)) {
    Finish(pending->ticket, Status::Cancelled("cancelled in admission queue"));
    return;
  }
  // Queue-level deadline: a budget that expired while the request sat in
  // the queue fails it without ever touching the engine. Requests that may
  // be served from the cache proceed — a warm hit costs no evaluation and
  // is served regardless of the budget (Serve re-checks after a miss).
  if (OverBudget(pending->request, pending->submitted) &&
      !UseCache(pending->request)) {
    Finish(pending->ticket,
           Status::DeadlineExceeded("time budget exhausted in admission queue"));
    return;
  }
  std::optional<ServingPath> served;
  Result<QueryResponse> result = Serve(*pending, queue_ms, &served);
  Finish(pending->ticket, std::move(result), served);
}

size_t ExpFinderService::TerminalCounter(std::optional<ServingPath> served,
                                         const Status& status) {
  using S = ServiceStats;
  if (served.has_value()) {
    switch (*served) {
      case ServingPath::kCache: return ServiceCounterIndex(&S::cache_hits);
      case ServingPath::kMaintained: return ServiceCounterIndex(&S::maintained_hits);
      case ServingPath::kPlannerShortCircuit:
        return ServiceCounterIndex(&S::planner_short_circuits);
      case ServingPath::kCompressed: return ServiceCounterIndex(&S::compressed_evals);
      case ServingPath::kDirect: return ServiceCounterIndex(&S::direct_evals);
    }
  }
  EF_DCHECK(!status.ok()) << "an OK result without a serving path";
  switch (status.code()) {
    case StatusCode::kCancelled: return ServiceCounterIndex(&S::cancelled);
    case StatusCode::kUnavailable: return ServiceCounterIndex(&S::unavailable);
    case StatusCode::kResourceExhausted:  // queue full
      return ServiceCounterIndex(&S::rejected_overload);
    default: return ServiceCounterIndex(&S::rejected);
  }
}

void ExpFinderService::Finish(const std::shared_ptr<TicketState>& ticket,
                              Result<QueryResponse> result,
                              std::optional<ServingPath> served) {
  // Counted before CompleteTicket releases waiters, so a caller that saw
  // its ticket complete also sees it counted.
  counters_[TerminalCounter(served, result.status())].fetch_add(1,
                                                               std::memory_order_relaxed);
  CompleteTicket(ticket, std::move(result));
}

Result<QueryResponse> ExpFinderService::Serve(const PendingQuery& pending,
                                              double queue_ms,
                                              std::optional<ServingPath>* served) {
  const QueryRequest& request = pending.request;
  const Pattern& pattern = request.pattern;  // topic terms compiled in by Submit
  const Timer& timer = pending.submitted;
  const bool use_cache = UseCache(request);

  // Pin the snapshot this request evaluates against: the current epoch
  // (one atomic load), or a retained historical version for as_of reads.
  // From here on the request touches only frozen state — no lock is shared
  // with writers, so a long evaluation never delays a Mutate and a Mutate
  // never invalidates anything this request reads.
  std::shared_ptr<const EngineSnapshot> snap;
  if (request.as_of_version.has_value()) {
    snap = FindRetained(*request.as_of_version);
    if (snap == nullptr) {
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
    if (snap == nullptr) {
      auto primary = epoch_.load(std::memory_order_acquire);
      if (options_.replication.fallback_to_primary &&
          primary->version >= min_version) {
        Count<&ServiceStats::routed_fallbacks>();
        snap = std::move(primary);
      } else if (outcome == AcquireOutcome::kUnavailable) {
        // Fleet down or unrecoverable (and the primary cannot cover):
        // kUnavailable tells the caller to route away / retry elsewhere,
        // unlike a deadline miss where waiting longer could have worked.
        return Status::Unavailable(
            "replica fleet unavailable for min_version " +
            std::to_string(min_version) +
            (options_.replication.fallback_to_primary
                 ? " and the primary has not reached it"
                 : " (primary fallback disabled)"));
      } else {
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
      return Status::DeadlineExceeded(
          "min_version " + std::to_string(*request.min_version) +
          " is beyond the current epoch (version " +
          std::to_string(snap->version) + ")");
    }
  }
  Count<&ServiceStats::snapshot_acquires>();

  QueryResponse response;
  response.queue_ms = queue_ms;
  response.graph_version = snap->version;

  const bool complete =
      use_cache && FromCache(request, pending.key, pending.rank_key, &response);
  if (response.answer == nullptr) {
    MatchRelation matches;
    ContextLease lease(this);
    MatchContext& ctx = lease.ctx();
    // A direct run's support pairs: its result graph is assembled from
    // them. Maintained and compressed answers scan for theirs.
    const SupportPairs* pairs = nullptr;
    if (const MatchRelation* maintained = snap->Maintained(pending.key)) {
      response.path = ServingPath::kMaintained;
      matches = *maintained;  // the snapshot's copy is frozen; ours mutates
    } else {
      if (CancelRequested(pending)) {
        return Status::Cancelled("cancelled before evaluation");
      }
      if (OverBudget(request, timer)) {
        return Status::DeadlineExceeded("time budget exhausted before evaluation");
      }
      EvalOverrides overrides;
      overrides.match_threads = request.match_threads;
      overrides.cancelled = &pending.ticket->cancelled;
      overrides.timer = &timer;
      overrides.time_budget_ms = request.time_budget_ms;
      // The leased context accumulates across requests; publish this
      // request's topic-seeding telemetry as a before/after delta.
      const size_t builds0 = ctx.topic_index_builds();
      const size_t hits0 = ctx.posting_hits();
      const size_t falls0 = ctx.seed_scan_fallbacks();
      auto evaluated = core_.Evaluate(*snap, pattern, request.semantics, overrides,
                                      &ctx, &response.path, &pairs);
      Count<&ServiceStats::topic_index_builds>(ctx.topic_index_builds() - builds0);
      Count<&ServiceStats::posting_hits>(ctx.posting_hits() - hits0);
      Count<&ServiceStats::seed_scan_fallbacks>(ctx.seed_scan_fallbacks() - falls0);
      if (!evaluated.ok()) return evaluated.status();
      matches = std::move(evaluated).value();
    }
    ResultGraph rg = pairs != nullptr ? ResultGraph(pattern, matches, *pairs)
                                      : ResultGraph(snap->graph, pattern, matches, &ctx);
    response.answer = std::make_shared<const QueryAnswer>(
        QueryAnswer{std::move(matches), std::move(rg)});
    if (use_cache) {
      // The entry keeps the compiled pattern for Mutate's affected-area test.
      auto answered = std::make_shared<const Pattern>(pattern);
      std::lock_guard<std::mutex> lock(cache_mu_);
      cache_.Put(pending.key, response.graph_version, response.answer,
                 std::move(answered));
    }
  }
  // The request has an answer: it counts under this path even if ranking
  // refuses it below.
  *served = response.path;

  // A hit whose memo covered top_k is complete; anything else still ranks.
  if (request.top_k && !complete) {
    if (CancelRequested(pending)) {
      return Status::Cancelled("cancelled before ranking");
    }
    if (OverBudget(request, timer)) {
      return Status::DeadlineExceeded("time budget exhausted before ranking");
    }
    // Each ranking of an answer runs once: it ranks with this request's k,
    // outside every lock, and offers the list to the answer's memo, from
    // which later hits whose k it covers copy a prefix.
    Result<std::vector<RankedMatch>> ranked =
        request.metric == RankingMetric::kTopicFusion
            ? TopKTopicFusion(response.answer->result_graph, pattern,
                              snap->graph->graph(), request.topic_terms, *request.top_k)
            : TopKMatchesWith(response.answer->result_graph, pattern, *request.top_k,
                              request.metric);
    if (!ranked.ok()) return ranked.status();
    response.ranked = std::move(ranked).value();
    response.answer->ranked_lists.Store(pending.rank_key, *request.top_k,
                                        response.ranked);
  }
  response.eval_ms = timer.ElapsedMillis();
  return response;
}

bool ExpFinderService::FromCache(const QueryRequest& request, uint64_t key,
                                 const RankedListKey& rank_key,
                                 QueryResponse* response) {
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    response->answer = cache_.Get(key, response->graph_version);
  }
  if (response->answer == nullptr) return false;
  response->path = ServingPath::kCache;
  return !request.top_k.has_value() ||
         response->answer->ranked_lists.Find(rank_key, *request.top_k,
                                             &response->ranked);
}

bool ExpFinderService::Paused() {
  std::lock_guard<std::mutex> lock(pause_mu_);
  return paused_;
}

Result<QueryResponse> ExpFinderService::Query(const QueryRequest& request) {
  return Submit(request).Get();
}

std::vector<Result<QueryResponse>> ExpFinderService::QueryBatch(
    const std::vector<QueryRequest>& requests) {
  Count<&ServiceStats::query_batches>();
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
  Count<&ServiceStats::snapshots_published>();
  std::lock_guard<std::mutex> ring(ring_mu_);
  retained_.push_back(std::move(snap));
  while (retained_.size() > options_.retained_snapshots) {
    retained_.pop_front();
    Count<&ServiceStats::snapshots_retired>();
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
  // The pre-batch state: every writer publishes before it releases the
  // lock, so the epoch is the live graph as this batch finds it.
  const std::shared_ptr<const EngineSnapshot> before =
      epoch_.load(std::memory_order_acquire);
  EF_RETURN_NOT_OK(engine_.ApplyUpdates(batch));
  Count<&ServiceStats::batches_applied>();
  Count<&ServiceStats::updates_applied>(batch.size());
  return CommitLocked([&] { return DurableGraph::EncodeBatch(batch); },
                      [&] { ExtendCachedAnswersLocked(*before, batch); });
}

Status ExpFinderService::CommitLocked(const std::function<std::string()>& encode,
                                      const std::function<void()>& before_publish) {
  // Only the WAL and the replicas read the record.
  std::string record;
  if (durable_ != nullptr || delta_source_ != nullptr) record = encode();
  // WAL before the epoch swap: the change is durable (per fsync policy)
  // before any reader can observe it and before the caller sees OK. On a
  // WAL failure the in-memory state still advances (and publishes — the
  // engine already applied) but the caller gets the error: the change is
  // NOT acknowledged durable and will not survive a crash.
  Status logged = Status::OK();
  // "Entered the log" is the ship condition, not "acknowledged durable": an
  // appended-but-unsynced record (fsync failure) has an LSN and replicas
  // must apply it to stay contiguous with later records; a torn append has
  // no LSN (and seals the log), so skipping it leaves no gap.
  bool entered_log = durable_ == nullptr;
  if (durable_ != nullptr) {
    const uint64_t lsn_before = durable_->next_lsn();
    logged = durable_->AppendRecord(record);
    entered_log = durable_->next_lsn() > lsn_before;
    if (logged.ok()) {
      Count<&ServiceStats::wal_appends>();
    } else {
      Count<&ServiceStats::durability_errors>();
    }
  }
  if (before_publish) before_publish();
  PublishLocked();
  if (entered_log && delta_source_ != nullptr) {
    delta_source_->Ship(durable_ != nullptr ? durable_->next_lsn() - 1 : ship_lsn_++,
                        std::move(record));
    Count<&ServiceStats::deltas_shipped>();
  }
  // Checkpoint only on the success path: after a failed append the WAL may
  // hold the record appended-but-unsynced (LSN advanced), and an immediate
  // checkpoint at that LSN would make the just-refused change durable.
  if (logged.ok()) MaybeCheckpointLocked();
  return logged;
}

void ExpFinderService::ExtendCachedAnswersLocked(const EngineSnapshot& before,
                                                 const UpdateBatch& batch) {
  const uint64_t to = g_->version();
  if (cache_.capacity() == 0 || to == before.version) return;
  std::vector<ResultCache::Tail> tails;
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    tails = cache_.EntriesEndingAt(before.version);
  }
  if (tails.empty()) return;
  std::vector<const Pattern*> patterns;
  patterns.reserve(tails.size());
  for (const ResultCache::Tail& t : tails) patterns.push_back(t.pattern.get());
  const std::vector<bool> may_change =
      BatchMayChange(before.graph->graph(), *g_, batch, patterns);
  std::lock_guard<std::mutex> lock(cache_mu_);
  for (size_t i = 0; i < tails.size(); ++i) {
    if (!may_change[i]) cache_.Extend(tails[i].fingerprint, before.version, to);
  }
}

Result<NodeId> ExpFinderService::AddNode(
    std::string_view label,
    const std::vector<std::pair<std::string, AttrValue>>& attrs) {
  std::lock_guard<std::mutex> writer(writer_mu_);
  auto id = engine_.AddNode(label, attrs);
  if (!id.ok()) return id;
  Count<&ServiceStats::nodes_added>();
  // On a failed append the node exists in memory but is not durable.
  EF_RETURN_NOT_OK(
      CommitLocked([&] { return DurableGraph::EncodeAddNode(*id, label, attrs); }));
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
      Count<&ServiceStats::checkpoints_written>();
    } else {
      Count<&ServiceStats::durability_errors>();
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
    Count<&ServiceStats::checkpoints_written>();
  } else {
    Count<&ServiceStats::durability_errors>();
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
  if (fleet_ != nullptr) s.replicas = fleet_->Replicas();
  for (size_t i = 0; i < kNumServiceCounters; ++i) {
    const ServiceCounter& counter = kServiceCounters[i];
    size_t& value = s.*counter.field;
    value = counters_[i].load(std::memory_order_relaxed);
    if (counter.replica_total == nullptr) continue;
    for (const ReplicaStatus& replica : s.replicas) value += replica.*counter.replica_total;
  }
  s.queued = queue_.size();
  s.queued_by_priority = queue_.LaneDepths();
  for (size_t i = 0; i < kQueueLatencyBuckets; ++i) {
    s.queue_latency_histogram[i] = queue_latency_[i].load(std::memory_order_relaxed);
  }
  return s;
}

}  // namespace expfinder
