// ExpFinderService: the typed request/response surface, serving-path
// classification, per-request overrides, batch evaluation, and the
// reader/writer concurrency model (snapshot isolation + serial-replay
// equivalence, run under ThreadSanitizer in CI).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/generator/generators.h"
#include "src/matching/bounded_simulation.h"
#include "src/service/expfinder_service.h"
#include "src/util/random.h"

namespace expfinder {
namespace {

QueryRequest Fig1Request() {
  QueryRequest req;
  req.pattern = gen::BuildFig1Pattern();
  return req;
}

class ServiceFixture : public ::testing::Test {
 protected:
  void SetUp() override { g_ = gen::BuildFig1Graph(); }
  Graph g_;
};

TEST_F(ServiceFixture, QueryProducesPaperAnswer) {
  ExpFinderService service(&g_);
  auto resp = service.Query(Fig1Request());
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_EQ(resp->answer->matches.TotalPairs(), 7u);
  EXPECT_EQ(resp->answer->result_graph.NumNodes(), 7u);
  EXPECT_EQ(resp->path, ServingPath::kDirect);
  EXPECT_EQ(resp->graph_version, g_.version());
  EXPECT_GE(resp->eval_ms, 0.0);
  EXPECT_TRUE(resp->ranked.empty());  // no top_k requested
}

TEST_F(ServiceFixture, InvalidRequestRejected) {
  ExpFinderService service(&g_);
  QueryRequest req;  // pattern without nodes/output
  auto resp = service.Query(req);
  EXPECT_FALSE(resp.ok());
  EXPECT_TRUE(resp.status().IsInvalidArgument());
  EXPECT_EQ(service.stats().rejected, 1u);
  EXPECT_EQ(service.stats().ClassifiedQueries(), service.stats().queries);
}

TEST_F(ServiceFixture, CacheHitSharesTheAnswer) {
  ExpFinderService service(&g_);
  auto first = service.Query(Fig1Request());
  auto second = service.Query(Fig1Request());
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(first->path, ServingPath::kDirect);
  EXPECT_EQ(second->path, ServingPath::kCache);
  EXPECT_EQ(first->answer.get(), second->answer.get());  // shared immutable
  ServiceStats s = service.stats();
  EXPECT_EQ(s.cache_hits, 1u);
  EXPECT_EQ(s.direct_evals, 1u);
}

TEST_F(ServiceFixture, PerRequestCacheOptOut) {
  ExpFinderService service(&g_);
  ASSERT_TRUE(service.Query(Fig1Request()).ok());
  QueryRequest req = Fig1Request();
  req.use_cache = false;
  auto resp = service.Query(req);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->path, ServingPath::kDirect);  // bypassed the warm cache
  EXPECT_EQ(service.stats().cache_hits, 0u);
}

TEST_F(ServiceFixture, PerRequestCacheOptInOverridesDisabledDefault) {
  ServiceOptions opts;
  opts.engine.use_cache = false;
  ExpFinderService service(&g_, opts);
  // With use_cache=false at construction the cache has capacity 0, so even
  // an opt-in request cannot be served from it — but it must not crash or
  // miscount either (disabled cache = no bookkeeping).
  QueryRequest req = Fig1Request();
  req.use_cache = true;
  ASSERT_TRUE(service.Query(req).ok());
  auto resp = service.Query(req);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->path, ServingPath::kDirect);
  EXPECT_EQ(service.stats().cache_hits, 0u);
}

TEST_F(ServiceFixture, PerRequestBallIndexOptOutSameAnswer) {
  // The per-request A/B knob: disabling the ball index forces the BFS
  // traversal paths for that request only, with a bit-identical relation.
  ServiceOptions opts;
  opts.engine.use_cache = false;  // every request really evaluates
  opts.engine.ball_index.build_after_uses = 1;
  ExpFinderService service(&g_, opts);
  auto indexed = service.Query(Fig1Request());
  ASSERT_TRUE(indexed.ok());
  QueryRequest req = Fig1Request();
  req.use_ball_index = false;
  auto plain = service.Query(req);
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(plain->answer->matches == indexed->answer->matches);
  EXPECT_EQ(plain->path, ServingPath::kDirect);
  // And the index stays warm: a third, default request matches too.
  auto again = service.Query(Fig1Request());
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->answer->matches == indexed->answer->matches);
}

TEST_F(ServiceFixture, TopKThroughRequest) {
  ExpFinderService service(&g_);
  QueryRequest req = Fig1Request();
  req.top_k = 1;
  auto resp = service.Query(req);
  ASSERT_TRUE(resp.ok()) << resp.status();
  ASSERT_EQ(resp->ranked.size(), 1u);
  EXPECT_EQ(resp->ranked[0].node, gen::Fig1::kBob);
  EXPECT_DOUBLE_EQ(resp->ranked[0].score, 1.8);
}

TEST_F(ServiceFixture, MaintainedServingPath) {
  ExpFinderService service(&g_);
  Pattern q = gen::BuildFig1Pattern();
  ASSERT_TRUE(service.RegisterMaintainedQuery(q).ok());
  EXPECT_TRUE(service.IsMaintained(q));
  auto [src, dst] = gen::Fig1EdgeE1();
  ASSERT_TRUE(service.Mutate({GraphUpdate::Insert(src, dst)}).ok());
  QueryRequest req;
  req.pattern = q;
  req.use_cache = false;
  auto resp = service.Query(req);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->path, ServingPath::kMaintained);
  EXPECT_EQ(resp->answer->matches.TotalPairs(), 8u);  // Fred joined
  EXPECT_TRUE(resp->answer->matches == ComputeBoundedSimulation(g_, q));
}

TEST_F(ServiceFixture, CompressedServingPathAndDualFallback) {
  ServiceOptions opts;
  opts.engine.use_compression = true;
  ExpFinderService service(&g_, opts);
  ASSERT_NE(service.compressed(), nullptr);

  QueryRequest req = Fig1Request();
  req.use_cache = false;
  auto bounded = service.Query(req);
  ASSERT_TRUE(bounded.ok());
  EXPECT_EQ(bounded->path, ServingPath::kCompressed);
  EXPECT_TRUE(bounded->answer->matches == ComputeBoundedSimulation(g_, req.pattern));

  // Dual simulation is never servable from the quotient graph.
  req.semantics = MatchSemantics::kDualSimulation;
  auto dual = service.Query(req);
  ASSERT_TRUE(dual.ok());
  EXPECT_EQ(dual->path, ServingPath::kDirect);
}

TEST(ServiceTest, CompressedSnapshotNotStaleAfterInPlaceRebuild) {
  // Regression: the compressed graph is rebuilt in place (gc_ = Graph()),
  // so its address is stable and its version counter restarts — an update
  // that leaves the partition shape unchanged can land the rebuilt graph on
  // the *same* (address, version) pair as the cached snapshot. Graph::uid()
  // must disambiguate, or the service serves matches against the
  // pre-update topology.
  Graph g;
  NodeId a = g.AddNode("A");
  NodeId b = g.AddNode("B");
  NodeId c = g.AddNode("C");
  ASSERT_TRUE(g.AddEdge(a, b).ok());

  ServiceOptions opts;
  opts.engine.use_cache = false;
  opts.engine.use_compression = true;
  ExpFinderService service(&g, opts);

  PatternBuilder pb;
  auto pa = pb.Node("A", "pa").Output();
  auto pc = pb.Node("C", "pc");
  pb.Edge(pa, pc, 2);
  QueryRequest req;
  req.pattern = pb.Build().value();

  auto before = service.Query(req);
  ASSERT_TRUE(before.ok()) << before.status();
  EXPECT_EQ(before->path, ServingPath::kCompressed);
  EXPECT_TRUE(before->answer->matches.IsEmpty());  // a cannot reach any C

  ASSERT_TRUE(
      service.Mutate({GraphUpdate::Delete(a, b), GraphUpdate::Insert(a, c)}).ok());
  auto after = service.Query(req);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->path, ServingPath::kCompressed);
  EXPECT_EQ(after->answer->matches.TotalPairs(), 2u) << "stale compressed snapshot";
  EXPECT_TRUE(after->answer->matches == ComputeBoundedSimulation(g, req.pattern));
}

TEST_F(ServiceFixture, PlannerShortCircuitPath) {
  ExpFinderService service(&g_);
  PatternBuilder b;
  b.Node("NOPE", "x").Output();
  QueryRequest req;
  req.pattern = b.Build().value();
  auto resp = service.Query(req);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->path, ServingPath::kPlannerShortCircuit);
  EXPECT_TRUE(resp->answer->matches.IsEmpty());
}

TEST_F(ServiceFixture, TimeBudgetRejectsBeforeEvaluation) {
  ExpFinderService service(&g_);
  QueryRequest req = Fig1Request();
  req.use_cache = false;
  req.time_budget_ms = 1e-9;  // expired by the time the check runs
  auto resp = service.Query(req);
  EXPECT_FALSE(resp.ok());
  EXPECT_TRUE(resp.status().IsDeadlineExceeded());
  EXPECT_EQ(service.stats().rejected, 1u);
  EXPECT_EQ(service.stats().ClassifiedQueries(), service.stats().queries);
  // A cached answer is served regardless: it costs no evaluation.
  QueryRequest warm = Fig1Request();
  ASSERT_TRUE(service.Query(warm).ok());
  warm.time_budget_ms = 1e-9;
  warm.top_k = std::nullopt;
  auto cached = service.Query(warm);
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(cached->path, ServingPath::kCache);
}

TEST_F(ServiceFixture, MutateValidatesAtomically) {
  ExpFinderService service(&g_);
  uint64_t before = service.version();
  UpdateBatch bad{GraphUpdate::Insert(0, 1), GraphUpdate::Delete(0, 99)};
  EXPECT_FALSE(service.Mutate(bad).ok());
  EXPECT_EQ(service.version(), before);
  EXPECT_EQ(service.stats().batches_applied, 0u);
}

TEST_F(ServiceFixture, AddNodeThroughService) {
  ExpFinderService service(&g_);
  size_t before = g_.NumNodes();
  auto id = service.AddNode("ST", {{"name", AttrValue("Tom")},
                                   {"experience", AttrValue(3)}});
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(g_.NumNodes(), before + 1);
  EXPECT_EQ(service.stats().nodes_added, 1u);

  // Bounded simulation matches the newcomer to ST, dual does not (no
  // matching ancestors yet) — both via per-request semantics.
  QueryRequest req = Fig1Request();
  req.use_cache = false;
  auto st = req.pattern.FindNode("ST");
  ASSERT_TRUE(st.has_value());
  auto bounded = service.Query(req);
  req.semantics = MatchSemantics::kDualSimulation;
  auto dual = service.Query(req);
  ASSERT_TRUE(bounded.ok() && dual.ok());
  EXPECT_TRUE(bounded->answer->matches.Contains(*st, *id));
  EXPECT_FALSE(dual->answer->matches.Contains(*st, *id));
}

TEST_F(ServiceFixture, QueryBatchAlignsResultsWithRequests) {
  ExpFinderService service(&g_);
  std::vector<QueryRequest> requests;
  requests.push_back(Fig1Request());
  requests.push_back(QueryRequest{});  // invalid: fails Validate
  QueryRequest ranked = Fig1Request();
  ranked.top_k = 2;
  requests.push_back(ranked);
  auto results = service.QueryBatch(requests);
  ASSERT_EQ(results.size(), 3u);
  ASSERT_TRUE(results[0].ok());
  EXPECT_EQ(results[0]->answer->matches.TotalPairs(), 7u);
  EXPECT_FALSE(results[1].ok());
  EXPECT_TRUE(results[1].status().IsInvalidArgument());
  ASSERT_TRUE(results[2].ok());
  EXPECT_EQ(results[2]->ranked.size(), 2u);
  EXPECT_EQ(service.stats().query_batches, 1u);
}

TEST_F(ServiceFixture, StatsStayClassified) {
  // One request per serving path. Each response reports its path, a
  // positive eval_ms and the version it was served at, and each lands in
  // exactly one counter.
  ServiceOptions opts;
  opts.engine.use_compression = true;
  ExpFinderService service(&g_, opts);
  PatternBuilder testers;
  testers.Node("ST", "st").Output();
  QueryRequest maintained;
  maintained.pattern = testers.Build().value();
  ASSERT_TRUE(service.RegisterMaintainedQuery(maintained.pattern).ok());
  PatternBuilder dba;  // a condition outside the compression schema
  dba.Node("SD", "sd").Where("specialty", CmpOp::kEq, "DBA").Output();
  QueryRequest direct;
  direct.pattern = dba.Build().value();
  PatternBuilder imp;
  imp.Node("NOPE", "x").Output();
  QueryRequest impossible;
  impossible.pattern = imp.Build().value();

  auto serve = [&](const QueryRequest& req, ServingPath want) {
    auto resp = service.Query(req);
    ASSERT_TRUE(resp.ok()) << ServingPathName(want) << ": " << resp.status();
    EXPECT_EQ(resp->path, want) << ServingPathName(want);
    EXPECT_GT(resp->eval_ms, 0.0) << ServingPathName(want);
    EXPECT_EQ(resp->graph_version, service.version()) << ServingPathName(want);
  };
  serve(Fig1Request(), ServingPath::kCompressed);
  serve(Fig1Request(), ServingPath::kCache);
  serve(maintained, ServingPath::kMaintained);
  serve(direct, ServingPath::kDirect);
  serve(impossible, ServingPath::kPlannerShortCircuit);
  EXPECT_FALSE(service.Query(QueryRequest{}).ok());  // rejected
  ServiceStats s = service.stats();
  EXPECT_EQ(s.queries, 6u);
  EXPECT_EQ(s.compressed_evals, 1u);
  EXPECT_EQ(s.cache_hits, 1u);
  EXPECT_EQ(s.maintained_hits, 1u);
  EXPECT_EQ(s.direct_evals, 1u);
  EXPECT_EQ(s.planner_short_circuits, 1u);
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.ClassifiedQueries(), s.queries);
  EXPECT_FALSE(s.ToString().empty());
}

TEST(ServingPathTest, NamesAreStable) {
  EXPECT_EQ(ServingPathName(ServingPath::kCache), "cache");
  EXPECT_EQ(ServingPathName(ServingPath::kMaintained), "maintained");
  EXPECT_EQ(ServingPathName(ServingPath::kPlannerShortCircuit),
            "planner_short_circuit");
  EXPECT_EQ(ServingPathName(ServingPath::kCompressed), "compressed");
  EXPECT_EQ(ServingPathName(ServingPath::kDirect), "direct");
}

// ---------------------------------------------------------------------------
// The asynchronous Submit/ticket surface. A service constructed with
// start_paused = true admits but does not serve, which makes queue-level
// behavior — overload, priority order, queued-deadline expiry, queued
// cancellation — fully deterministic: nothing is dequeued until Resume().
// ---------------------------------------------------------------------------

ServiceOptions PausedOptions(size_t queue_capacity = 8) {
  ServiceOptions opts;
  opts.serving_threads = 1;  // drains strictly one at a time, in queue order
  opts.queue_capacity = queue_capacity;
  opts.start_paused = true;
  return opts;
}

QueryRequest UncachedFig1Request() {
  QueryRequest req = Fig1Request();
  req.use_cache = false;
  return req;
}

TEST_F(ServiceFixture, SubmitReturnsWithoutEvaluating) {
  ExpFinderService service(&g_, PausedOptions());
  QueryTicket ticket = service.Submit(UncachedFig1Request());
  ASSERT_TRUE(ticket.valid());
  EXPECT_FALSE(ticket.done());  // admitted, not evaluated (service paused)
  ServiceStats s = service.stats();
  EXPECT_EQ(s.queries, 1u);
  EXPECT_EQ(s.queued, 1u);
  EXPECT_EQ(s.direct_evals, 0u);
  EXPECT_EQ(s.ClassifiedQueries(), 0u);  // nothing terminal yet
  EXPECT_EQ(ticket.TryGet(0.0), std::nullopt);  // poll: still pending

  service.Resume();
  auto resp = ticket.Get();
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_EQ(resp->answer->matches.TotalPairs(), 7u);
  EXPECT_EQ(resp->path, ServingPath::kDirect);
  EXPECT_GE(resp->queue_ms, 0.0);
  EXPECT_GE(resp->eval_ms, resp->queue_ms);
  // TryGet is repeatable: the result is copied out, not consumed.
  auto again = ticket.TryGet(0.0);
  ASSERT_TRUE(again.has_value());
  EXPECT_TRUE(again->ok());
  EXPECT_EQ((*again)->answer.get(), resp->answer.get());
  EXPECT_EQ(service.stats().queued, 0u);
}

TEST_F(ServiceFixture, OverloadRejectedAtExactCapacity) {
  ExpFinderService service(&g_, PausedOptions(/*queue_capacity=*/2));
  QueryTicket a = service.Submit(UncachedFig1Request());
  QueryTicket b = service.Submit(UncachedFig1Request());
  EXPECT_FALSE(a.done());
  EXPECT_FALSE(b.done());

  // The third admission hits the capacity wall: the ticket is complete
  // before Submit returns, with kResourceExhausted.
  QueryTicket c = service.Submit(UncachedFig1Request());
  ASSERT_TRUE(c.done());
  auto overflow = c.Get();
  EXPECT_FALSE(overflow.ok());
  EXPECT_TRUE(overflow.status().IsResourceExhausted()) << overflow.status();

  ServiceStats s = service.stats();
  EXPECT_EQ(s.queries, 3u);
  EXPECT_EQ(s.rejected_overload, 1u);
  EXPECT_EQ(s.queued, 2u);

  service.Resume();
  EXPECT_TRUE(a.Get().ok());
  EXPECT_TRUE(b.Get().ok());
  s = service.stats();
  EXPECT_EQ(s.direct_evals, 2u);
  EXPECT_EQ(s.ClassifiedQueries(), s.queries);
}

TEST_F(ServiceFixture, PriorityOrdersTheQueue) {
  ExpFinderService service(&g_, PausedOptions());
  std::mutex order_mu;
  std::vector<QueryPriority> completion_order;
  auto record = [&](QueryPriority priority) {
    return [&, priority](const Result<QueryResponse>&) {
      std::lock_guard<std::mutex> lock(order_mu);
      completion_order.push_back(priority);
    };
  };
  std::vector<QueryTicket> tickets;
  for (QueryPriority priority :
       {QueryPriority::kBackground, QueryPriority::kNormal,
        QueryPriority::kInteractive, QueryPriority::kNormal}) {
    QueryRequest req = UncachedFig1Request();
    req.priority = priority;
    QueryTicket ticket = service.Submit(req);
    ticket.OnComplete(record(priority));
    tickets.push_back(std::move(ticket));
  }
  service.Resume();
  for (QueryTicket& t : tickets) EXPECT_TRUE(t.Get().ok());

  // One serving worker drains strictly: interactive first, FIFO among the
  // two normals, background last.
  std::lock_guard<std::mutex> lock(order_mu);
  ASSERT_EQ(completion_order.size(), 4u);
  EXPECT_EQ(completion_order[0], QueryPriority::kInteractive);
  EXPECT_EQ(completion_order[1], QueryPriority::kNormal);
  EXPECT_EQ(completion_order[2], QueryPriority::kNormal);
  EXPECT_EQ(completion_order[3], QueryPriority::kBackground);
}

TEST_F(ServiceFixture, UnknownPriorityRejectedAtSubmit) {
  // The priority indexes an admission lane, so a value cast from untrusted
  // input must be refused before it can index out of bounds.
  ExpFinderService service(&g_);
  QueryRequest req = UncachedFig1Request();
  req.priority = static_cast<QueryPriority>(7);
  auto resp = service.Query(req);
  EXPECT_FALSE(resp.ok());
  EXPECT_TRUE(resp.status().IsInvalidArgument()) << resp.status();
  EXPECT_EQ(service.stats().rejected, 1u);
  EXPECT_EQ(service.stats().ClassifiedQueries(), service.stats().queries);
}

TEST_F(ServiceFixture, UnknownMetricRejectedAtSubmit) {
  // An unknown metric has no scorer: ranking by it would order the matches
  // by node id with all-zero scores and report OK.
  ExpFinderService service(&g_);
  QueryRequest req = UncachedFig1Request();
  req.metric = static_cast<RankingMetric>(9);
  req.top_k = 5;
  auto resp = service.Query(req);
  EXPECT_FALSE(resp.ok());
  EXPECT_TRUE(resp.status().IsInvalidArgument()) << resp.status();
  EXPECT_EQ(service.stats().rejected, 1u);
  EXPECT_EQ(service.stats().ClassifiedQueries(), service.stats().queries);
}

TEST_F(ServiceFixture, CancelWhileQueuedNeverTouchesTheEngine) {
  ExpFinderService service(&g_, PausedOptions());
  QueryTicket doomed = service.Submit(UncachedFig1Request());
  QueryTicket kept = service.Submit(UncachedFig1Request());
  EXPECT_TRUE(doomed.Cancel());  // not yet complete: the cancel can land
  service.Resume();

  auto cancelled = doomed.Get();
  EXPECT_FALSE(cancelled.ok());
  EXPECT_TRUE(cancelled.status().IsCancelled()) << cancelled.status();
  EXPECT_TRUE(kept.Get().ok());

  ServiceStats s = service.stats();
  EXPECT_EQ(s.cancelled, 1u);
  EXPECT_EQ(s.direct_evals, 1u);  // only `kept` evaluated
  EXPECT_EQ(s.ClassifiedQueries(), s.queries);
  // Cancel after completion: too late, the result stands.
  EXPECT_FALSE(kept.Cancel());
  EXPECT_TRUE(kept.Get().ok());
}

TEST_F(ServiceFixture, QueueExpiredDeadlineNeverTouchesTheEngine) {
  ExpFinderService service(&g_, PausedOptions());
  QueryRequest req = UncachedFig1Request();
  req.time_budget_ms = 0.01;  // expires while the service is paused
  QueryTicket ticket = service.Submit(req);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  service.Resume();
  auto resp = ticket.Get();
  EXPECT_FALSE(resp.ok());
  EXPECT_TRUE(resp.status().IsDeadlineExceeded()) << resp.status();
  ServiceStats s = service.stats();
  EXPECT_EQ(s.direct_evals, 0u);  // the engine never saw the request
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.ClassifiedQueries(), s.queries);
}

TEST_F(ServiceFixture, EvalStageDeadlineAlsoYieldsDeadlineExceeded) {
  // The other deadline site: EvalCore's stage-boundary check, fed by the
  // service's override plumbing. Both sites must surface the same status
  // code.
  QueryEngine engine(&g_);
  const EvalCore core(EngineOptions{});
  Pattern q = gen::BuildFig1Pattern();
  MatchContext ctx, compressed_ctx;
  EvalPath path = EvalPath::kDirect;
  Timer started_long_ago;
  EvalOverrides overrides;
  overrides.timer = &started_long_ago;
  overrides.time_budget_ms = 1e-9;  // already expired at the first boundary
  auto snap = engine.Publish();
  auto res = core.Evaluate(*snap, q, MatchSemantics::kBoundedSimulation, overrides,
                           &ctx, &compressed_ctx, &path);
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsDeadlineExceeded()) << res.status();
}

TEST_F(ServiceFixture, CancelMidEvaluationStopsAtStageBoundary) {
  // Deterministic version of the mid-eval race: the flag is already set
  // when the engine reaches its first stage boundary, so the evaluation
  // must stop there with Cancelled instead of running to completion.
  QueryEngine engine(&g_);
  const EvalCore core(EngineOptions{});
  Pattern q = gen::BuildFig1Pattern();
  MatchContext ctx, compressed_ctx;
  EvalPath path = EvalPath::kDirect;
  std::atomic<bool> cancel_flag{true};
  EvalOverrides overrides;
  overrides.cancelled = &cancel_flag;
  auto snap = engine.Publish();
  auto res = core.Evaluate(*snap, q, MatchSemantics::kBoundedSimulation, overrides,
                           &ctx, &compressed_ctx, &path);
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsCancelled()) << res.status();
  // Cancellation wins over an expired deadline (a cancelled request must
  // not masquerade as slow).
  Timer started_long_ago;
  overrides.timer = &started_long_ago;
  overrides.time_budget_ms = 1e-9;
  res = core.Evaluate(*snap, q, MatchSemantics::kBoundedSimulation, overrides, &ctx,
                      &compressed_ctx, &path);
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsCancelled()) << res.status();
}

TEST_F(ServiceFixture, OnCompleteFiresInlineWhenAlreadyDone) {
  ExpFinderService service(&g_);
  QueryTicket ticket = service.Submit(UncachedFig1Request());
  ticket.Wait();
  bool fired = false;
  ticket.OnComplete([&](const Result<QueryResponse>& resp) {
    fired = true;
    EXPECT_TRUE(resp.ok());
  });
  EXPECT_TRUE(fired);
}

TEST_F(ServiceFixture, QueryAndBatchShareTheSubmitServingPath) {
  // Query/QueryBatch are wrappers over Submit: every request passes
  // through the admission queue, so the queue-latency histogram accounts
  // for each of them exactly once.
  ExpFinderService service(&g_);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(service.Query(Fig1Request()).ok());
  std::vector<QueryRequest> batch(4, Fig1Request());
  for (auto& result : service.QueryBatch(batch)) ASSERT_TRUE(result.ok());
  QueryTicket ticket = service.Submit(Fig1Request());
  ASSERT_TRUE(ticket.Get().ok());

  ServiceStats s = service.stats();
  EXPECT_EQ(s.queries, 8u);
  size_t dequeued = 0;
  for (size_t count : s.queue_latency_histogram) dequeued += count;
  EXPECT_EQ(dequeued, 8u);  // one admission per request, wrapper or not
  EXPECT_EQ(s.query_batches, 1u);
  EXPECT_EQ(s.ClassifiedQueries(), s.queries);
}

TEST_F(ServiceFixture, EveryTerminalStateCountedExactlyOnce) {
  // The ClassifiedQueries regression: one request per terminal state —
  // direct eval, cache hit, planner short circuit, validation reject,
  // overload reject, queued cancel — each lands in exactly one counter.
  ExpFinderService service(&g_, PausedOptions(/*queue_capacity=*/1));
  QueryTicket queued = service.Submit(UncachedFig1Request());   // -> direct
  QueryTicket overflow = service.Submit(UncachedFig1Request()); // -> overload
  EXPECT_TRUE(overflow.done());
  service.Resume();
  ASSERT_TRUE(queued.Get().ok());

  QueryTicket cancelled_ticket;
  {
    // Park a second paused service to get a deterministic queued cancel.
    ExpFinderService parked(&g_, PausedOptions());
    cancelled_ticket = parked.Submit(UncachedFig1Request());
    EXPECT_TRUE(cancelled_ticket.Cancel());
    parked.Resume();
    auto st = cancelled_ticket.Get();
    EXPECT_TRUE(st.status().IsCancelled());
    EXPECT_EQ(parked.stats().cancelled, 1u);
    EXPECT_EQ(parked.stats().ClassifiedQueries(), parked.stats().queries);
  }

  ASSERT_TRUE(service.Query(Fig1Request()).ok());   // direct eval + cache fill
  ASSERT_TRUE(service.Query(Fig1Request()).ok());   // cache hit
  PatternBuilder imp;
  imp.Node("NOPE", "x").Output();
  QueryRequest impossible;
  impossible.pattern = imp.Build().value();
  ASSERT_TRUE(service.Query(impossible).ok());      // planner short circuit
  EXPECT_FALSE(service.Query(QueryRequest{}).ok()); // validation reject

  ServiceStats s = service.stats();
  EXPECT_EQ(s.queries, 6u);
  EXPECT_EQ(s.rejected_overload, 1u);
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.cancelled, 0u);  // the cancel landed on the parked service
  EXPECT_EQ(s.planner_short_circuits, 1u);
  EXPECT_EQ(s.cache_hits, 1u);
  EXPECT_EQ(s.ClassifiedQueries(), s.queries);
}

TEST_F(ServiceFixture, ShutdownCompletesPendingTicketsAsCancelled) {
  std::vector<QueryTicket> tickets;
  {
    ExpFinderService service(&g_, PausedOptions());
    for (int i = 0; i < 6; ++i) tickets.push_back(service.Submit(UncachedFig1Request()));
    // Destructor: pending requests complete as Cancelled, tickets outlive
    // the service.
  }
  for (QueryTicket& ticket : tickets) {
    ASSERT_TRUE(ticket.done());
    auto resp = ticket.Get();
    EXPECT_FALSE(resp.ok());
    EXPECT_TRUE(resp.status().IsCancelled()) << resp.status();
  }
}

// ---------------------------------------------------------------------------
// as_of_version: time-travel reads from the retained-snapshot ring.
// ---------------------------------------------------------------------------

TEST_F(ServiceFixture, AsOfVersionServesRetainedSnapshot) {
  const MatchRelation before = ComputeBoundedSimulation(g_, gen::BuildFig1Pattern());
  ExpFinderService service(&g_);
  const uint64_t v0 = service.version();
  auto [src, dst] = gen::Fig1EdgeE1();
  ASSERT_TRUE(service.Mutate({GraphUpdate::Insert(src, dst)}).ok());
  ASSERT_GT(service.version(), v0);

  // Pinned read: the relation is M(Q, G@v0) although the graph moved on.
  QueryRequest pinned = Fig1Request();
  pinned.as_of_version = v0;
  auto old_resp = service.Query(pinned);
  ASSERT_TRUE(old_resp.ok()) << old_resp.status();
  EXPECT_EQ(old_resp->graph_version, v0);
  EXPECT_TRUE(old_resp->answer->matches == before);
  EXPECT_EQ(old_resp->answer->matches.TotalPairs(), 7u);

  // Unpinned read sees the current epoch (Fred joined: 8 pairs).
  auto new_resp = service.Query(Fig1Request());
  ASSERT_TRUE(new_resp.ok());
  EXPECT_EQ(new_resp->graph_version, service.version());
  EXPECT_EQ(new_resp->answer->matches.TotalPairs(), 8u);

  // Pinning the current version explicitly is equivalent to not pinning.
  QueryRequest current = Fig1Request();
  current.use_cache = false;
  current.as_of_version = service.version();
  auto cur_resp = service.Query(current);
  ASSERT_TRUE(cur_resp.ok());
  EXPECT_TRUE(cur_resp->answer->matches == new_resp->answer->matches);
}

TEST_F(ServiceFixture, AsOfVersionCacheHitsAreVersionScoped) {
  // The version is folded into the cache key, so a pinned read can be
  // served from the cache — and only ever by an entry of its own version.
  ExpFinderService service(&g_);
  const uint64_t v0 = service.version();
  ASSERT_TRUE(service.Query(Fig1Request()).ok());  // warm the cache at v0
  auto [src, dst] = gen::Fig1EdgeE1();
  ASSERT_TRUE(service.Mutate({GraphUpdate::Insert(src, dst)}).ok());

  QueryRequest pinned = Fig1Request();
  pinned.as_of_version = v0;
  auto resp = service.Query(pinned);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->path, ServingPath::kCache);  // the v0 entry still serves
  EXPECT_EQ(resp->graph_version, v0);
  EXPECT_EQ(resp->answer->matches.TotalPairs(), 7u);

  auto current = service.Query(Fig1Request());  // miss: different version
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(current->path, ServingPath::kDirect);
  EXPECT_EQ(current->answer->matches.TotalPairs(), 8u);
}

TEST_F(ServiceFixture, AsOfVersionEvictedOrUnknownIsNotFound) {
  ServiceOptions opts;
  opts.retained_snapshots = 1;  // current epoch only: no time travel
  ExpFinderService service(&g_, opts);
  const uint64_t v0 = service.version();
  auto [src, dst] = gen::Fig1EdgeE1();
  ASSERT_TRUE(service.Mutate({GraphUpdate::Insert(src, dst)}).ok());
  EXPECT_EQ(service.RetainedVersions(),
            std::vector<uint64_t>{service.version()});

  QueryRequest evicted = Fig1Request();
  evicted.as_of_version = v0;  // retired when the new epoch was published
  auto resp = service.Query(evicted);
  ASSERT_FALSE(resp.ok());
  EXPECT_TRUE(resp.status().IsNotFound()) << resp.status();

  QueryRequest unknown = Fig1Request();
  unknown.as_of_version = service.version() + 100;  // never published
  auto future = service.Query(unknown);
  ASSERT_FALSE(future.ok());
  EXPECT_TRUE(future.status().IsNotFound()) << future.status();

  ServiceStats s = service.stats();
  EXPECT_EQ(s.rejected, 2u);
  EXPECT_GE(s.snapshots_retired, 1u);
  EXPECT_EQ(s.ClassifiedQueries(), s.queries);
}

TEST_F(ServiceFixture, RetainedRingKeepsTheLastKVersions) {
  ServiceOptions opts;
  opts.retained_snapshots = 3;
  ExpFinderService service(&g_, opts);
  std::vector<uint64_t> published = {service.version()};
  auto [src, dst] = gen::Fig1EdgeE1();
  GraphUpdate insert = GraphUpdate::Insert(src, dst);
  GraphUpdate remove = GraphUpdate::Delete(src, dst);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(service.Mutate({i % 2 == 0 ? insert : remove}).ok());
    published.push_back(service.version());
  }
  // Only the newest 3 of the 5 published versions remain, oldest first.
  std::vector<uint64_t> want(published.end() - 3, published.end());
  EXPECT_EQ(service.RetainedVersions(), want);
  for (uint64_t version : want) {
    QueryRequest req = Fig1Request();
    req.use_cache = false;
    req.as_of_version = version;
    auto resp = service.Query(req);
    ASSERT_TRUE(resp.ok()) << "version " << version << ": " << resp.status();
    EXPECT_EQ(resp->graph_version, version);
  }
  EXPECT_EQ(service.stats().snapshots_published, 5u);
  EXPECT_EQ(service.stats().snapshots_retired, 2u);
}

// ---------------------------------------------------------------------------
// Concurrency: N reader threads issuing Query/QueryBatch against M writer
// batches. Every response must be internally consistent — its relation
// equals M(Q, G) at exactly the graph version it reports — and the final
// state must equal a serial replay of the same batches.
// ---------------------------------------------------------------------------

struct StressConfig {
  size_t num_people = 360;
  size_t num_batches = 5;
  size_t batch_size = 20;
  size_t num_readers = 8;
  size_t min_reads_per_thread = 24;
  bool use_compression = false;
};

void RunReadersVersusWriter(const StressConfig& cfg) {
  gen::CollaborationConfig gen_cfg;
  gen_cfg.num_people = cfg.num_people;
  gen_cfg.num_teams = cfg.num_people / 6;
  gen_cfg.seed = 12;
  Graph g = gen::CollaborationNetwork(gen_cfg);

  const std::vector<Pattern> patterns = {gen::TeamQuery(0), gen::TeamQuery(1),
                                         gen::TeamQuery(2)};

  // Serial replay on a replica: record the expected relation of every
  // pattern at every version a reader can observe.
  Graph replica = g;
  std::vector<UpdateBatch> batches;
  std::vector<std::map<uint64_t, MatchRelation>> expected(patterns.size());
  for (size_t p = 0; p < patterns.size(); ++p) {
    expected[p][replica.version()] = ComputeBoundedSimulation(replica, patterns[p]);
  }
  for (size_t b = 0; b < cfg.num_batches; ++b) {
    UpdateBatch batch =
        GenerateUpdateStream(replica, cfg.batch_size, 0.5, 1000 + b);
    ASSERT_TRUE(ApplyBatch(&replica, batch).ok());
    batches.push_back(std::move(batch));
    for (size_t p = 0; p < patterns.size(); ++p) {
      expected[p][replica.version()] =
          ComputeBoundedSimulation(replica, patterns[p]);
    }
  }

  ServiceOptions opts;
  opts.engine.use_compression = cfg.use_compression;
  opts.engine.match_threads = 1;  // per-request parallelism, not per-matcher
  opts.serving_threads = 4;
  ExpFinderService service(&g, opts);
  // One maintained query so that serving path runs under writers too.
  ASSERT_TRUE(service.RegisterMaintainedQuery(patterns[1]).ok());

  std::mutex failures_mu;
  std::vector<std::string> failures;
  auto record_failure = [&](const std::string& msg) {
    std::lock_guard<std::mutex> lock(failures_mu);
    failures.push_back(msg);
  };
  auto check_response = [&](size_t p, const Result<QueryResponse>& resp) {
    if (!resp.ok()) {
      record_failure("query failed: " + resp.status().ToString());
      return;
    }
    auto it = expected[p].find(resp->graph_version);
    if (it == expected[p].end()) {
      std::ostringstream os;
      os << "response reports unknown graph version " << resp->graph_version;
      record_failure(os.str());
      return;
    }
    if (!(resp->answer->matches == it->second)) {
      std::ostringstream os;
      os << "relation inconsistent with reported version " << resp->graph_version
         << " for pattern " << p << " (path "
         << ServingPathName(resp->path) << ")";
      record_failure(os.str());
    }
  };

  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    for (const UpdateBatch& batch : batches) {
      Status st = service.Mutate(batch);
      if (!st.ok()) record_failure("mutate failed: " + st.ToString());
      // Let a window of reads land on this version before the next batch,
      // so readers genuinely observe several published snapshots.
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
    writer_done.store(true);
  });

  std::vector<std::thread> readers;
  for (size_t t = 0; t < cfg.num_readers; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(77 * (t + 1));
      size_t reads = 0;
      // Hard cap so the loop terminates even if the writer is starved for a
      // long stretch (readers stopping is what unblocks it).
      const size_t hard_cap = 64 * cfg.min_reads_per_thread;
      while (reads < cfg.min_reads_per_thread ||
             (!writer_done.load() && reads < hard_cap)) {
        size_t p = rng.NextBounded(patterns.size());
        QueryRequest req;
        req.pattern = patterns[p];
        req.use_cache = rng.NextBool();
        if (rng.NextBool(0.25)) req.top_k = 3;
        if (rng.NextBool(0.25)) {
          // Batch of 3, each individually snapshot-consistent.
          std::vector<QueryRequest> reqs(3, req);
          for (auto& result : service.QueryBatch(reqs)) check_response(p, result);
          reads += reqs.size();
        } else {
          check_response(p, service.Query(req));
          ++reads;
        }
      }
    });
  }
  writer.join();
  for (auto& r : readers) r.join();

  for (const std::string& f : failures) ADD_FAILURE() << f;

  // Final state equals the serial replay.
  EXPECT_EQ(service.version(), replica.version());
  EXPECT_EQ(g.NumEdges(), replica.NumEdges());
  for (size_t p = 0; p < patterns.size(); ++p) {
    QueryRequest req;
    req.pattern = patterns[p];
    req.use_cache = false;
    auto resp = service.Query(req);
    ASSERT_TRUE(resp.ok());
    EXPECT_TRUE(resp->answer->matches == expected[p].at(replica.version()))
        << "final relation diverges for pattern " << p;
  }
  EXPECT_EQ(service.stats().batches_applied, cfg.num_batches);
  EXPECT_EQ(service.stats().ClassifiedQueries(), service.stats().queries);
}

TEST(ServiceStressTest, ConcurrentReadersAndWriter) {
  RunReadersVersusWriter({});
}

TEST(ServiceStressTest, ConcurrentReadersAndWriterCompressed) {
  StressConfig cfg;
  cfg.num_batches = 3;
  cfg.use_compression = true;
  RunReadersVersusWriter(cfg);
}

TEST(ServiceStressTest, ReaderOnlyBatchMatchesSerial) {
  gen::CollaborationConfig cfg;
  cfg.num_people = 360;
  cfg.num_teams = 60;
  cfg.seed = 5;
  Graph g = gen::CollaborationNetwork(cfg);
  ServiceOptions opts;
  opts.engine.match_threads = 1;
  opts.serving_threads = 8;
  ExpFinderService service(&g, opts);

  std::vector<QueryRequest> requests;
  for (int i = 0; i < 24; ++i) {
    QueryRequest req;
    req.pattern = gen::TeamQuery(i % 3);
    req.use_cache = false;
    requests.push_back(std::move(req));
  }
  auto results = service.QueryBatch(requests);
  ASSERT_EQ(results.size(), requests.size());
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << i << ": " << results[i].status();
    EXPECT_TRUE(results[i]->answer->matches ==
                ComputeBoundedSimulation(g, requests[i].pattern))
        << "batch result " << i << " diverges from serial evaluation";
  }
}

TEST(ServiceStressTest, MixedSubmitMutateCancelStress) {
  // The async surface under fire: submitter threads racing tickets (mixed
  // priorities, random cancels, batches) against a writer applying Mutate
  // batches. Every ok response must match the serial-replay relation at
  // exactly the version it reports; cancelled/rejected tickets must be
  // terminal; and at quiescence every submitted request is classified
  // exactly once. Runs under ThreadSanitizer in CI (label: concurrency).
  gen::CollaborationConfig gen_cfg;
  gen_cfg.num_people = 300;
  gen_cfg.num_teams = 50;
  gen_cfg.seed = 21;
  Graph g = gen::CollaborationNetwork(gen_cfg);

  const std::vector<Pattern> patterns = {gen::TeamQuery(0), gen::TeamQuery(1),
                                         gen::TeamQuery(2)};

  Graph replica = g;
  std::vector<UpdateBatch> batches;
  std::vector<std::map<uint64_t, MatchRelation>> expected(patterns.size());
  for (size_t p = 0; p < patterns.size(); ++p) {
    expected[p][replica.version()] = ComputeBoundedSimulation(replica, patterns[p]);
  }
  constexpr size_t kBatches = 4;
  for (size_t b = 0; b < kBatches; ++b) {
    UpdateBatch batch = GenerateUpdateStream(replica, 16, 0.5, 2000 + b);
    ASSERT_TRUE(ApplyBatch(&replica, batch).ok());
    batches.push_back(std::move(batch));
    for (size_t p = 0; p < patterns.size(); ++p) {
      expected[p][replica.version()] =
          ComputeBoundedSimulation(replica, patterns[p]);
    }
  }

  ServiceOptions opts;
  opts.engine.match_threads = 1;
  opts.serving_threads = 4;
  opts.queue_capacity = 512;  // ample: overload is not under test here
  ExpFinderService service(&g, opts);

  std::mutex failures_mu;
  std::vector<std::string> failures;
  auto record_failure = [&](const std::string& msg) {
    std::lock_guard<std::mutex> lock(failures_mu);
    failures.push_back(msg);
  };

  std::thread writer([&] {
    for (const UpdateBatch& batch : batches) {
      Status st = service.Mutate(batch);
      if (!st.ok()) record_failure("mutate failed: " + st.ToString());
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
  });

  constexpr size_t kSubmitters = 4;
  constexpr size_t kPerThread = 40;
  std::vector<std::thread> submitters;
  for (size_t t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      Rng rng(911 * (t + 1));
      for (size_t i = 0; i < kPerThread; ++i) {
        size_t p = rng.NextBounded(patterns.size());
        QueryRequest req;
        req.pattern = patterns[p];
        req.use_cache = rng.NextBool();
        req.priority = static_cast<QueryPriority>(
            rng.NextBounded(kNumQueryPriorities));
        if (rng.NextBool(0.2)) req.top_k = 3;
        QueryTicket ticket = service.Submit(req);
        const bool try_cancel = rng.NextBool(0.25);
        if (try_cancel) {
          if (rng.NextBool()) std::this_thread::yield();
          ticket.Cancel();
        }
        auto resp = ticket.Get();
        if (resp.ok()) {
          auto it = expected[p].find(resp->graph_version);
          if (it == expected[p].end()) {
            record_failure("response reports unknown graph version " +
                           std::to_string(resp->graph_version));
          } else if (!(resp->answer->matches == it->second)) {
            record_failure("relation inconsistent with reported version " +
                           std::to_string(resp->graph_version));
          }
        } else if (!resp.status().IsCancelled()) {
          // The only acceptable failure in this workload is our own cancel.
          record_failure("unexpected failure: " + resp.status().ToString());
        } else if (!try_cancel) {
          record_failure("spurious cancel: " + resp.status().ToString());
        }
      }
    });
  }
  writer.join();
  for (auto& s : submitters) s.join();

  for (const std::string& f : failures) ADD_FAILURE() << f;

  ServiceStats s = service.stats();
  EXPECT_EQ(s.queries, kSubmitters * kPerThread);
  EXPECT_EQ(s.queued, 0u);
  EXPECT_EQ(s.rejected_overload, 0u);
  EXPECT_EQ(s.rejected, 0u);
  EXPECT_EQ(s.ClassifiedQueries(), s.queries);
  EXPECT_EQ(service.version(), replica.version());
}

}  // namespace
}  // namespace expfinder
