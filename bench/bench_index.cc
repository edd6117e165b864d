// Topic-index suite (ISSUE 8): the cost of building the inverted index, the
// seeding win for text-predicate queries (posting-list probe vs full label
// scan — the "find experts about X" hot path), and the end-to-end service
// topic query with the index on vs off. Relations are bit-identical either
// way, so every pair here measures pure seeding cost.

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "src/expfinder.h"

using namespace expfinder;
using namespace expfinder::bench;

namespace {

/// One output node demanding a rare-ish phrase, one structural peer: the
/// canonical compiled topic query.
Pattern TopicQuery() {
  PatternBuilder b;
  auto expert = b.Node("", "expert");
  expert.Where("topics", CmpOp::kHasToken, AttrValue("graph databases")).Output();
  auto peer = b.Node("", "peer");
  b.Edge(expert, peer, 1);
  return b.Build().value();
}

void BM_TopicIndexBuild(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Graph g = MakeTopicEr(n);
  size_t postings = 0;
  for (auto _ : state) {
    auto index = TopicIndex::Build(g, {});
    postings = index->TotalPostings();
    benchmark::DoNotOptimize(index);
  }
  state.counters["postings"] = static_cast<double>(postings);
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_TopicIndexBuild)->Arg(4000)->Arg(16000)->Arg(64000)->Complexity();

void BM_TextSeedingScan(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Graph g = MakeTopicEr(n);
  Pattern q = TopicQuery();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeCandidates(g, q, {}));
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_TextSeedingScan)->Arg(4000)->Arg(16000)->Arg(64000)->Complexity();

void BM_TextSeedingPostings(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Graph g = MakeTopicEr(n);
  Pattern q = TopicQuery();
  auto index = TopicIndex::Build(g, {});
  EF_CHECK(index != nullptr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ComputeCandidates(g, q, {}, index.get(), /*stats=*/nullptr));
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_TextSeedingPostings)->Arg(4000)->Arg(16000)->Arg(64000)->Complexity();

/// Seeding of an `experience >= k` pattern (one condition on each of three
/// labelled nodes, as loadbench's team patterns) on the 10k-node
/// TopicExpertise-labelled TwitterLike graph; arg = k. Only the attribute
/// reads separate the runs: no text predicates, no topic index.
void BM_IntPredicateSeeding(benchmark::State& state) {
  Graph g = MakeTopicTwitter(10000);
  const int64_t k = state.range(0);
  PatternBuilder b;
  auto sa = b.Node("SA", "SA").Where("experience", CmpOp::kGe, k).Output();
  auto sd = b.Node("SD", "SD").Where("experience", CmpOp::kGe, k);
  auto st = b.Node("ST", "ST").Where("experience", CmpOp::kGe, k);
  b.Edge(sa, sd, 2);
  b.Edge(sd, st, 2);
  const Pattern q = b.Build().value();
  size_t candidates = 0;
  for (auto _ : state) {
    CandidateSets cand = ComputeCandidates(g, q, {});
    candidates = cand.list[0].size() + cand.list[1].size() + cand.list[2].size();
    benchmark::DoNotOptimize(cand);
  }
  state.counters["candidates"] = static_cast<double>(candidates);
}
BENCHMARK(BM_IntPredicateSeeding)->Arg(2)->Arg(8)->Unit(benchmark::kMicrosecond);

void BM_BoundedSimTopicQuery(benchmark::State& state) {
  // Whole-matcher view of the same ablation: arg 1 toggles the index.
  size_t n = static_cast<size_t>(state.range(0));
  const bool indexed = state.range(1) != 0;
  Graph g = MakeTopicEr(n);
  auto snap = g.Publish();
  Pattern q = TopicQuery();
  MatchOptions options;
  options.topic_index.enabled = indexed;
  options.topic_index.build_after_uses = 1;
  MatchContext ctx;
  // Warm the slot outside the timing loop: the steady state is the number
  // that matters, and the build cost has its own benchmark above.
  ComputeBoundedSimulation(snap, q, options, &ctx);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeBoundedSimulation(snap, q, options, &ctx));
  }
}
BENCHMARK(BM_BoundedSimTopicQuery)
    ->Args({16000, 0})
    ->Args({16000, 1})
    ->Args({64000, 0})
    ->Args({64000, 1});

void BM_ServiceTopicQuery(benchmark::State& state) {
  // End to end: free-text terms -> compiled pattern -> seeding -> fused
  // ranking, through the service's typed API. arg 1 toggles the index.
  size_t n = static_cast<size_t>(state.range(0));
  const bool indexed = state.range(1) != 0;
  Graph g = MakeTopicEr(n);
  ServiceOptions options;
  options.engine.topic_index.enabled = indexed;
  options.engine.topic_index.build_after_uses = 1;
  options.serving_threads = 1;
  ExpFinderService service(&g, options);
  QueryRequest req;
  PatternBuilder b;
  b.Node("").Output();
  req.pattern = b.Build().value();
  req.topic_terms = {"graph databases"};
  req.metric = RankingMetric::kTopicFusion;
  req.top_k = 10;
  req.use_cache = false;
  EF_CHECK(service.Query(req).ok());  // warm the slot outside the timing loop
  for (auto _ : state) {
    auto resp = service.Query(req);
    EF_CHECK(resp.ok());
    benchmark::DoNotOptimize(resp);
  }
}
BENCHMARK(BM_ServiceTopicQuery)->Args({16000, 0})->Args({16000, 1});

}  // namespace

BENCHMARK_MAIN();
