// Experiment E2 (engine view) — query latency through the ExpFinder
// engine's serving paths (§II "Query evaluation"): direct evaluation,
// compressed-graph evaluation, and maintained (incremental) queries. The
// Google Benchmark cases time the work of one uncached read — EvalCore on
// the engine's published snapshot plus the result graph, as the service
// builds it; the table adds the service's cache hit.

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "src/expfinder.h"

using namespace expfinder;
using namespace expfinder::bench;

namespace {

Graph* SharedGraph() {
  static Graph g = MakeCollab(16000, 6);
  return &g;
}

/// One uncached read as the service serves it: EvalCore::Evaluate, then
/// the result graph, assembled from a direct run's support pairs or, on the
/// compressed path, by scan.
ResultGraph EvaluateAnswer(const EvalCore& core, const EngineSnapshot& snap,
                           const Pattern& q, MatchSemantics semantics, MatchContext* ctx) {
  ServingPath path = ServingPath::kDirect;
  const SupportPairs* pairs = nullptr;
  auto matches = core.Evaluate(snap, q, semantics, {}, ctx, &path, &pairs);
  EF_CHECK(matches.ok());
  return pairs != nullptr ? ResultGraph(q, *matches, *pairs)
                          : ResultGraph(snap.graph, q, *matches, ctx);
}

/// One uncached read of `q` against the engine's current snapshot.
void EvaluateAndBuildResultGraph(benchmark::State& state, bool use_compression) {
  Graph g = *SharedGraph();
  EngineOptions opts;
  opts.use_compression = use_compression;
  QueryEngine engine(&g, opts);
  const EvalCore core(opts);
  MatchContext ctx;
  auto snap = engine.Publish();
  Pattern q = gen::TeamQuery(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        EvaluateAnswer(core, *snap, q, MatchSemantics::kBoundedSimulation, &ctx));
  }
}

void BM_EngineDirect(benchmark::State& state) {
  EvaluateAndBuildResultGraph(state, /*use_compression=*/false);
}
BENCHMARK(BM_EngineDirect);

void BM_EngineCompressed(benchmark::State& state) {
  EvaluateAndBuildResultGraph(state, /*use_compression=*/true);
}
BENCHMARK(BM_EngineCompressed);

/// EvaluateAnswer on a published 10k-node TwitterLike snapshot with topic
/// labels (the loadbench graph's shape) for an architect-team pattern:
/// args are dual (0 bounded, 1 dual simulation) and index (0 no ball index,
/// 1 warm: built before timing). Seeding runs serial, as each of a loaded
/// service's workers does.
void BM_EvaluateAnswer(benchmark::State& state) {
  static const Graph shared = MakeTopicTwitter(10000);
  Graph g = shared;
  const MatchSemantics semantics = state.range(0) != 0
                                       ? MatchSemantics::kDualSimulation
                                       : MatchSemantics::kBoundedSimulation;
  EngineOptions opts;
  opts.match_threads = 1;
  opts.ball_index.enabled = state.range(1) != 0;
  opts.ball_index.build_after_uses = 1;
  QueryEngine engine(&g, opts);
  const EvalCore core(opts);
  MatchContext ctx;
  auto snap = engine.Publish();
  PatternBuilder b;
  auto sa = b.Node("SA", "SA").Where("experience", CmpOp::kGe, 10).Output();
  auto sd = b.Node("SD", "SD").Where("experience", CmpOp::kGe, 6);
  auto st = b.Node("ST", "ST").Where("experience", CmpOp::kGe, 4);
  b.Edge(sa, sd, 2).Edge(sd, st, 2).Edge(sa, st, 3);
  const Pattern q = b.Build().value();
  EF_CHECK(EvaluateAnswer(core, *snap, q, semantics, &ctx).NumNodes() > 0);  // warms
  for (auto _ : state) {
    benchmark::DoNotOptimize(EvaluateAnswer(core, *snap, q, semantics, &ctx));
  }
}
BENCHMARK(BM_EvaluateAnswer)
    ->ArgNames({"dual", "index"})
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1});

void BM_EngineMaintainedUnderUpdates(benchmark::State& state) {
  Graph g = *SharedGraph();
  QueryEngine engine(&g);
  MatchContext ctx;
  Pattern q = gen::TeamQuery(0);
  const uint64_t key = QueryCacheKey(q, MatchSemantics::kBoundedSimulation);
  EF_CHECK(engine.RegisterMaintainedQuery(q).ok());
  UpdateBatch stream = GenerateUpdateStream(g, 4096, 0.5, 77);
  size_t i = 0;
  for (auto _ : state) {
    // One unit update, then a fresh read of the maintained relation.
    EF_CHECK(engine.ApplyUpdates({stream[i % stream.size()]}).ok());
    ++i;
    auto snap = engine.Publish();
    MatchRelation matches = *snap->Maintained(key);
    ResultGraph rg(snap->graph, q, matches, &ctx);
    benchmark::DoNotOptimize(rg);
  }
}
BENCHMARK(BM_EngineMaintainedUnderUpdates);

/// The graph half of a publish: capture a snapshot right after one 4-edge
/// batch (random edge flips) on the 10k-node TwitterLike graph. The batch
/// and the release of the previous snapshot are not timed.
void BM_SnapshotCaptureAfterBatch(benchmark::State& state) {
  Graph g = MakeTopicTwitter(10000);
  Rng rng(19);
  SnapshotPtr snap = g.Publish();
  for (auto _ : state) {
    state.PauseTiming();
    snap.reset();
    for (int i = 0; i < 4; ++i) {
      const auto a = static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
      const auto b = static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
      const Status st = g.HasEdge(a, b) ? g.RemoveEdge(a, b) : g.AddEdge(a, b);
      EF_CHECK(st.ok());
    }
    state.ResumeTiming();
    snap = g.Publish();
    benchmark::DoNotOptimize(snap);
  }
}
BENCHMARK(BM_SnapshotCaptureAfterBatch)->Unit(benchmark::kMicrosecond);

void ServingPathTable() {
  Header("E2 engine serving paths",
         "cached results return immediately; compressed evaluation beats "
         "direct; maintained queries absorb updates incrementally");
  QueryRequest req;
  req.pattern = gen::TeamQuery(0);
  auto served_ms = [&](ExpFinderService& service, const QueryRequest& r) {
    auto resp = service.Query(r);
    EF_CHECK(resp.ok());
    return resp->eval_ms;
  };

  Graph g = *SharedGraph();
  ServiceOptions opts;
  opts.engine.use_compression = true;
  ExpFinderService service(&g, opts);
  double cold_ms = served_ms(service, req);  // compressed eval (first time)
  double hot_ms = served_ms(service, req);   // cache hit

  Graph g2 = *SharedGraph();
  ExpFinderService direct_service(&g2);
  QueryRequest uncached = req;
  uncached.use_cache = false;
  double direct_ms = served_ms(direct_service, uncached);

  Table t({"path", "latency (ms)"});
  t.AddRow({"direct (no cache, no compression)", Table::Num(direct_ms, 2)});
  t.AddRow({"compressed (cold)", Table::Num(cold_ms, 2)});
  t.AddRow({"cache hit", Table::Num(hot_ms, 4)});
  std::printf("%s\n", t.ToString().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  ServingPathTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
