// Experiment E2 — query-engine performance: how (bounded) simulation scales
// with |G| on synthetic and Twitter-like graphs, against the subgraph-
// isomorphism baseline. Microbenchmarks via google-benchmark plus a
// paper-style scaling table.

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "src/expfinder.h"

using namespace expfinder;
using namespace expfinder::bench;

namespace {

void BM_Simulation(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Graph g = MakeEr(n, 1);
  Pattern q = gen::RandomPattern(4, 5, 1, 0.4, 11);
  // Graph simulation is the matcher's bound-1 case, timed in the serving
  // steady state like BM_BoundedSimulation.
  SnapshotPtr snap = g.Publish();
  MatchContext ctx;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeBoundedSimulation(snap, q, {}, &ctx));
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_Simulation)->Arg(1000)->Arg(4000)->Arg(16000)->Arg(64000)->Complexity();

/// BM_Simulation with seeding forced serial (num_threads 1): the auto fan-out
/// above should never be slower than this.
void BM_SimulationOneThread(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Graph g = MakeEr(n, 1);
  Pattern q = gen::RandomPattern(4, 5, 1, 0.4, 11);
  SnapshotPtr snap = g.Publish();
  MatchContext ctx;
  MatchOptions serial;
  serial.num_threads = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeBoundedSimulation(snap, q, serial, &ctx));
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_SimulationOneThread)
    ->Arg(1000)
    ->Arg(4000)
    ->Arg(16000)
    ->Arg(64000)
    ->Complexity();

void BM_BoundedSimulation(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Graph g = MakeEr(n, 1);
  Pattern q = gen::RandomPattern(4, 5, 2, 0.4, 11);
  // Serving steady state: one published snapshot (CSR and any lazily built
  // index) and one context (scratch) serve every query, exactly like the
  // service's pinned epoch and leased MatchContexts.
  SnapshotPtr snap = g.Publish();
  MatchContext ctx;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeBoundedSimulation(snap, q, {}, &ctx));
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_BoundedSimulation)->Arg(1000)->Arg(4000)->Arg(16000)->Complexity();

void BM_DualSimulation(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Graph g = MakeEr(n, 1);
  Pattern q = gen::RandomPattern(4, 5, 2, 0.4, 11);
  SnapshotPtr snap = g.Publish();
  MatchContext ctx;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ComputeBoundedSimulation(snap, q, {}, &ctx, MatchSemantics::kDualSimulation));
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_DualSimulation)->Arg(1000)->Arg(4000)->Arg(16000)->Complexity();

void BM_IncrementalBoundedUpdates(benchmark::State& state) {
  // The maintenance hot path in isolation: one maintained bounded query
  // absorbing unit update batches (cf. BM_EngineMaintainedUnderUpdates,
  // which also pays engine bookkeeping and a fresh evaluation per step).
  Graph g = MakeCollab(8000, 3);
  IncrementalBoundedSimulation inc(&g, gen::TeamQuery(0));
  UpdateBatch stream = GenerateUpdateStream(g, 4096, 0.5, 77);
  // The stream is only valid applied in order from the generation-time
  // graph, so ping-pong it: play it forward to the end, then undo it in
  // reverse back to the pristine graph, indefinitely.
  size_t i = 0;
  bool forward = true;
  for (auto _ : state) {
    const GraphUpdate& u = stream[i];
    GraphUpdate applied = forward           ? u
                          : u.kind == GraphUpdate::Kind::kInsertEdge
                              ? GraphUpdate::Delete(u.src, u.dst)
                              : GraphUpdate::Insert(u.src, u.dst);
    EF_CHECK(inc.ApplyBatch({applied}).ok());
    if (forward) {
      if (++i == stream.size()) {
        forward = false;
        i = stream.size() - 1;
      }
    } else if (i == 0) {
      forward = true;
    } else {
      --i;
    }
  }
}
BENCHMARK(BM_IncrementalBoundedUpdates);

void BM_BoundedSimulationTwitter(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Graph g = MakeTwitter(n, 2);
  Pattern q = gen::TeamQuery(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeBoundedSimulation(g, q));
  }
}
BENCHMARK(BM_BoundedSimulationTwitter)->Arg(4000)->Arg(16000);

void BM_SubgraphIsomorphism(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Graph g = MakeEr(n, 1);
  Pattern q = gen::RandomPattern(4, 5, 1, 0.4, 11);
  IsoOptions opts;
  opts.max_embeddings = 1000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(FindIsomorphicEmbeddings(g, q, opts));
  }
}
BENCHMARK(BM_SubgraphIsomorphism)->Arg(1000)->Arg(4000);

void BM_ResultGraphConstruction(benchmark::State& state) {
  Graph g = MakeCollab(static_cast<size_t>(state.range(0)), 3);
  Pattern q = gen::TeamQuery(0);
  MatchRelation m = ComputeBoundedSimulation(g, q);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ResultGraph(g, q, m));
  }
}
BENCHMARK(BM_ResultGraphConstruction)->Arg(2000)->Arg(8000);

void ScalingTable() {
  Header("E2 matching scalability (table form)",
         "simulation is quadratic-time, bounded simulation cubic-time, yet "
         "both tractable on large graphs; isomorphism is NP-complete");
  Table t({"graph", "n", "m", "sim (ms)", "bsim b<=2 (ms)", "bsim b<=3 (ms)",
           "iso-1k (ms)"});
  for (size_t n : {1000, 4000, 16000, 64000}) {
    Graph g = MakeEr(n, 7);
    Pattern qs = gen::RandomPattern(4, 5, 1, 0.4, 13);
    Pattern qb2 = gen::RandomPattern(4, 5, 2, 0.4, 13);
    Pattern qb3 = gen::RandomPattern(4, 5, 3, 0.4, 13);
    Timer ts;
    (void)ComputeBoundedSimulation(g, qs);
    double sim_ms = ts.ElapsedMillis();
    Timer tb2;
    (void)ComputeBoundedSimulation(g, qb2);
    double b2_ms = tb2.ElapsedMillis();
    Timer tb3;
    (void)ComputeBoundedSimulation(g, qb3);
    double b3_ms = tb3.ElapsedMillis();
    double iso_ms = -1;
    if (n <= 16000) {
      IsoOptions opts;
      opts.max_embeddings = 1000;
      Timer ti;
      (void)FindIsomorphicEmbeddings(g, qs, opts);
      iso_ms = ti.ElapsedMillis();
    }
    t.AddRow({"er", Table::Int(static_cast<int64_t>(n)),
              Table::Int(static_cast<int64_t>(g.NumEdges())), Table::Num(sim_ms, 1),
              Table::Num(b2_ms, 1), Table::Num(b3_ms, 1),
              iso_ms < 0 ? "-" : Table::Num(iso_ms, 1)});
  }
  std::printf("%s", t.ToString().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  ScalingTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
