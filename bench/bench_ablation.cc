// Experiment E8 — ablations of four design choices:
//   (a) counting worklist vs naive fixpoint for simulation (the bound-1
//       case of the one matcher);
//   (b) planner's label-index candidate initialization on vs off;
//   (c) bisimulation vs simulation-equivalence compression (ratio & cost);
//   (d) seed/restore incremental machinery vs full recompute at tiny churn.

#include "bench/bench_common.h"
#include "src/expfinder.h"

using namespace expfinder;
using namespace expfinder::bench;

namespace {

void CountingVsNaive() {
  Header("E8.a counting fixpoint vs naive fixpoint (simulation)",
         "the counting worklist gives the quadratic bound of [6]");
  Table t({"n", "counting (ms)", "naive (ms)", "speedup"});
  for (size_t n : {500, 1000, 2000, 4000}) {
    Graph g = MakeEr(n, 9);
    Pattern q = gen::RandomPattern(4, 5, 1, 0.4, 19);
    Timer tc;
    MatchRelation fast = ComputeBoundedSimulation(g, q);
    double counting_ms = tc.ElapsedMillis();
    Timer tn;
    MatchRelation slow = ComputeSimulationNaive(g, q);
    double naive_ms = tn.ElapsedMillis();
    EF_CHECK(fast == slow);
    t.AddRow({Table::Int(static_cast<int64_t>(n)), Table::Num(counting_ms, 2),
              Table::Num(naive_ms, 2),
              Table::Num(naive_ms / std::max(counting_ms, 1e-9), 1)});
  }
  std::printf("%s\n", t.ToString().c_str());
}

void PlannerAblation() {
  Header("E8.b planner: label-index candidate initialization",
         "optimized query plans (§III) — selective labels avoid full scans");
  Table t({"graph", "query", "label-index on (ms)", "off / full scan (ms)",
           "speedup"});
  Graph g = MakeTwitter(60000, 10);
  for (int i = 0; i < 3; ++i) {
    Pattern q = gen::TeamQuery(i);
    MatchOptions on, off;
    on.use_label_index = true;
    off.use_label_index = false;
    const int reps = 3;
    Timer ton;
    for (int r = 0; r < reps; ++r) (void)ComputeBoundedSimulation(g, q, on);
    double on_ms = ton.ElapsedMillis() / reps;
    Timer toff;
    for (int r = 0; r < reps; ++r) (void)ComputeBoundedSimulation(g, q, off);
    double off_ms = toff.ElapsedMillis() / reps;
    t.AddRow({"twitter60k", "Q" + std::to_string(i + 1), Table::Num(on_ms, 2),
              Table::Num(off_ms, 2), Table::Num(off_ms / std::max(on_ms, 1e-9), 2)});
  }
  std::printf("%s\n", t.ToString().c_str());
}

void EquivalenceAblation() {
  Header("E8.c bisimulation vs simulation-equivalence compression",
         "simulation equivalence is coarser (better ratio) but only preserves "
         "bound-1 queries and costs quadratic time");
  Table t({"n", "bisim classes", "bisim (ms)", "simeq classes", "simeq (ms)"});
  for (size_t n : {500, 1000, 2000, 4000}) {
    Graph g = MakeCollab(n, 11);
    CompressionSchema schema{true, {}};
    Timer tb;
    auto bis = CompressedGraph::Build(g, schema, EquivalenceMode::kBisimulation);
    double bis_ms = tb.ElapsedMillis();
    EF_CHECK(bis.ok());
    Timer ts;
    auto simeq = CompressedGraph::Build(g, schema, EquivalenceMode::kSimEquivalence);
    double simeq_ms = ts.ElapsedMillis();
    EF_CHECK(simeq.ok());
    EF_CHECK(simeq->NumClasses() <= bis->NumClasses());
    t.AddRow({Table::Int(static_cast<int64_t>(n)), Table::Int(bis->NumClasses()),
              Table::Num(bis_ms, 1), Table::Int(simeq->NumClasses()),
              Table::Num(simeq_ms, 1)});
  }
  std::printf("%s\n", t.ToString().c_str());
}

void RestoreMachineryCost() {
  Header("E8.d incremental machinery at tiny churn",
         "the affected-area design keeps unit updates far below recompute");
  Graph base = MakeCollab(30000, 12);
  Pattern q = gen::TeamQuery(0);
  Graph g = base;
  IncrementalBoundedSimulation inc(&g, q);
  UpdateBatch stream = GenerateUpdateStream(g, 100, 0.5, 13);
  Timer ti;
  for (const GraphUpdate& u : stream) EF_CHECK(inc.ApplyBatch({u}).ok());
  double inc_ms = ti.ElapsedMillis() / stream.size();
  Timer tb;
  MatchRelation batch = ComputeBoundedSimulation(g, q);
  double batch_ms = tb.ElapsedMillis();
  EF_CHECK(inc.Snapshot() == batch);
  std::printf("unit update: %.3f ms vs full recompute %.1f ms (%.0fx)\n\n", inc_ms,
              batch_ms, batch_ms / std::max(inc_ms, 1e-9));
}

}  // namespace

int main() {
  CountingVsNaive();
  PlannerAblation();
  EquivalenceAblation();
  RestoreMachineryCost();
  return 0;
}
