// Experiment E7 — top-K expert selection (§II "Results Ranking", §III
// "how top-K matches are selected based on the ranking function"): cost of
// the social-impact ranking as the result graph grows and as K varies,
// against exhaustively ranking everything, plus every alternative metric
// and the topic-fusion ranking of a compiled "experts about X" query.

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "src/expfinder.h"

using namespace expfinder;
using namespace expfinder::bench;

namespace {

struct Prepared {
  Graph g;
  Pattern q;
  MatchRelation m;
  ResultGraph gr;
};

Prepared Prepare(size_t n) {
  Prepared p{MakeCollab(n, 5), gen::TeamQuery(0), MatchRelation(), ResultGraph(
      Graph(), Pattern(), MatchRelation())};
  p.m = ComputeBoundedSimulation(p.g, p.q);
  p.gr = ResultGraph(p.g, p.q, p.m);
  return p;
}

void BM_TopK(benchmark::State& state) {
  static Prepared p = Prepare(8000);
  size_t k = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(TopKMatches(p.gr, p.q, k));
  }
}
BENCHMARK(BM_TopK)->Arg(1)->Arg(10)->Arg(100);

void BM_RankAll(benchmark::State& state) {
  static Prepared p = Prepare(8000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RankAllMatches(p.gr, p.q));
  }
}
BENCHMARK(BM_RankAll);

void BM_TopKMetric(benchmark::State& state) {
  static Prepared p = Prepare(8000);
  RankingMetric metric = static_cast<RankingMetric>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(TopKMatchesWith(p.gr, p.q, 10, metric));
  }
}
BENCHMARK(BM_TopKMetric)
    ->Arg(static_cast<int>(RankingMetric::kSocialImpact))
    ->Arg(static_cast<int>(RankingMetric::kCloseness))
    ->Arg(static_cast<int>(RankingMetric::kDegree))
    ->Arg(static_cast<int>(RankingMetric::kPageRank));

/// A compiled topic query over a labelled follower graph: SA (experience
/// >= 6) within 2 hops of an SD (experience >= 4), about "graph databases".
struct PreparedTopic {
  Graph g;
  Pattern q;
  ResultGraph gr;
  std::vector<std::string> terms;
};

PreparedTopic PrepareTopic() {
  gen::TwitterLikeConfig cfg;
  cfg.labels = gen::TopicExpertiseModel();
  PatternBuilder b;
  auto sa = b.Node("SA").Where("experience", CmpOp::kGe, AttrValue(int64_t{6})).Output();
  auto sd = b.Node("SD").Where("experience", CmpOp::kGe, AttrValue(int64_t{4}));
  b.Edge(sa, sd, 2);
  std::vector<std::string> terms = {"graph databases"};
  Graph g = gen::TwitterLike(cfg);
  Pattern q = CompileTopicTerms(b.Build().value(), terms);
  MatchRelation m = ComputeBoundedSimulation(g, q);
  ResultGraph gr(g, q, m);
  return PreparedTopic{std::move(g), std::move(q), std::move(gr), std::move(terms)};
}

void BM_TopKTopicFusion(benchmark::State& state) {
  static PreparedTopic p = PrepareTopic();
  for (auto _ : state) {
    benchmark::DoNotOptimize(TopKTopicFusion(p.gr, p.q, p.g, p.terms, 10));
  }
  state.counters["result_nodes"] = static_cast<double>(p.gr.NumNodes());
}
BENCHMARK(BM_TopKTopicFusion)->Unit(benchmark::kMicrosecond);

void TopKTable() {
  Header("E7 top-K expert selection",
         "the query result is typically large; the engine identifies the best "
         "K experts with minimum rank f()");
  Table t({"collab n", "result nodes", "result edges", "SA matches", "top-1 (ms)",
           "top-10 (ms)", "rank-all (ms)"});
  for (size_t n : {2000, 8000, 32000}) {
    Prepared p = Prepare(n);
    size_t matches = p.gr.MatchesOf(*p.q.output_node()).size();
    Timer t1;
    (void)TopKMatches(p.gr, p.q, 1);
    double top1 = t1.ElapsedMillis();
    Timer t10;
    (void)TopKMatches(p.gr, p.q, 10);
    double top10 = t10.ElapsedMillis();
    Timer tall;
    (void)RankAllMatches(p.gr, p.q);
    double all = tall.ElapsedMillis();
    t.AddRow({Table::Int(static_cast<int64_t>(n)),
              Table::Int(static_cast<int64_t>(p.gr.NumNodes())),
              Table::Int(static_cast<int64_t>(p.gr.NumEdges())),
              Table::Int(static_cast<int64_t>(matches)), Table::Num(top1, 2),
              Table::Num(top10, 2), Table::Num(all, 2)});
  }
  std::printf("%s", t.ToString().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  TopKTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
