// Experiment R1 — replication subsystem costs (PR 9): how fast a replica
// consumes the WAL-codec delta stream (records/s, the ceiling on follower
// freshness), what routed reads cost versus primary-epoch reads as the
// fleet grows, and how catch-up time scales with lag (the recovery window
// after a replica restart). Delta apply is single-threaded by design — one
// applier per replica — so the apply throughput directly bounds how much
// write traffic a fleet can follow in real time.

#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/expfinder.h"
#include "src/replication/delta.h"
#include "src/replication/fleet.h"
#include "src/replication/replica.h"
#include "src/storage/durable_graph.h"

using namespace expfinder;
using namespace expfinder::bench;

namespace {

constexpr size_t kGraphSize = 4000;
constexpr size_t kBatchUpdates = 10;

/// A pre-encoded delta stream: the base graph plus `count` WAL-codec batch
/// records, exactly what the primary ships per acknowledged Mutate.
struct DeltaStreamFixture {
  Graph base;
  std::vector<std::string> payloads;
};

const DeltaStreamFixture* SharedStream() {
  static DeltaStreamFixture* fixture = [] {
    auto* f = new DeltaStreamFixture();
    f->base = MakeCollab(kGraphSize, 3);
    Graph g = f->base;
    constexpr size_t kMaxRecords = 512;
    f->payloads.reserve(kMaxRecords);
    for (size_t b = 0; b < kMaxRecords; ++b) {
      UpdateBatch batch = GenerateUpdateStream(g, kBatchUpdates, 0.5, 7000 + b);
      if (!ApplyBatch(&g, batch).ok()) break;
      f->payloads.push_back(DurableGraph::EncodeBatch(batch));
    }
    return f;
  }();
  return fixture;
}

void WaitForFleet(const ExpFinderService& service, uint64_t version) {
  while (true) {
    bool ready = true;
    for (const ReplicaStatus& r : service.fleet()->Replicas()) {
      if (!r.alive || r.version < version) ready = false;
    }
    if (ready) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// Delta apply throughput: one replica replaying the encoded stream.
/// items/s = WAL records applied per second (each carrying kBatchUpdates
/// edge mutations).
void BM_ReplicaDeltaApply(benchmark::State& state) {
  const DeltaStreamFixture* stream = SharedStream();
  const size_t records = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    {
      Replica replica(0);
      ReplicaBootstrap anchor;
      anchor.graph = stream->base;
      anchor.next_lsn = 0;
      replica.Install(std::move(anchor));
      state.ResumeTiming();
      DeltaBatch batch;
      for (size_t i = 0; i < records; ++i) {
        batch.deltas.clear();
        batch.deltas.push_back({i, stream->payloads[i]});
        if (!replica.Apply(batch).ok()) state.SkipWithError("apply failed");
      }
      benchmark::DoNotOptimize(replica.version());
      state.PauseTiming();  // keep the replica's teardown untimed
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * records));
}
BENCHMARK(BM_ReplicaDeltaApply)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

/// Catch-up: a freshly anchored replica consuming `lag` records in one
/// fetch-sized run — the recovery window after a restart, as a function of
/// how far behind the checkpoint left it.
void BM_ReplicaCatchUpFromLag(benchmark::State& state) {
  const DeltaStreamFixture* stream = SharedStream();
  const size_t lag = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    {
      Replica replica(0);
      ReplicaBootstrap anchor;
      anchor.graph = stream->base;
      anchor.next_lsn = 0;
      replica.Install(std::move(anchor));
      DeltaBatch batch;
      for (size_t i = 0; i < lag; ++i) {
        batch.deltas.push_back({i, stream->payloads[i]});
      }
      state.ResumeTiming();
      if (!replica.Apply(batch).ok()) state.SkipWithError("apply failed");
      benchmark::DoNotOptimize(replica.next_lsn());
      state.PauseTiming();  // keep the replica's teardown untimed
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * lag));
}
BENCHMARK(BM_ReplicaCatchUpFromLag)
    ->Arg(32)
    ->Arg(128)
    ->Arg(512)
    ->Unit(benchmark::kMillisecond);

/// Routed-read latency vs fleet size: the same reader-only query stream
/// served from the primary epoch (0 replicas) and routed across fleets of
/// 1/2/4. Measures the full service path — admission, routing, evaluation
/// — so the delta vs Arg(0) is the routing overhead plus any cache-warmth
/// difference, not matcher cost.
void BM_ServiceRoutedRead(benchmark::State& state) {
  Graph g = MakeCollab(kGraphSize, 3);
  ServiceOptions opts;
  opts.engine.use_cache = false;
  opts.engine.match_threads = 1;
  opts.replication.num_replicas = static_cast<size_t>(state.range(0));
  opts.replication.poll_interval_ms = 1.0;
  ExpFinderService service(&g, opts);
  if (service.fleet() != nullptr) WaitForFleet(service, service.version());

  QueryRequest request;
  request.pattern = gen::TeamQuery(0);
  request.use_cache = false;
  request.match_threads = 1;
  for (auto _ : state) {
    auto resp = service.Query(request);
    if (!resp.ok()) state.SkipWithError("query failed");
    benchmark::DoNotOptimize(resp);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ServiceRoutedRead)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMicrosecond);

/// Degraded-mode routed reads (PR 10): the same query stream as
/// BM_ServiceRoutedRead/4's sibling, but against a 3-replica fleet with one
/// replica operator-killed. Routing skips the dead replica lock-free, so
/// the expected cost is within noise of the healthy 3-replica fleet — this
/// entry is the regression tripwire for that claim (a fleet that probed or
/// waited on its dead member would show up here first).
void BM_ServiceRoutedReadDegraded(benchmark::State& state) {
  Graph g = MakeCollab(kGraphSize, 3);
  ServiceOptions opts;
  opts.engine.use_cache = false;
  opts.engine.match_threads = 1;
  opts.replication.num_replicas = 3;
  opts.replication.poll_interval_ms = 1.0;
  ExpFinderService service(&g, opts);
  WaitForFleet(service, service.version());
  service.fleet()->StopReplica(0);  // 1 of 3 down for the whole run

  QueryRequest request;
  request.pattern = gen::TeamQuery(0);
  request.use_cache = false;
  request.match_threads = 1;
  for (auto _ : state) {
    auto resp = service.Query(request);
    if (!resp.ok()) state.SkipWithError("query failed");
    benchmark::DoNotOptimize(resp);
  }
  // Every read must have routed to a survivor, not fallen back.
  if (service.stats().routed_fallbacks != 0) {
    state.SkipWithError("degraded fleet fell back to the primary");
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ServiceRoutedReadDegraded)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  Header("R1: replication",
         "followers keep up with the write stream by replaying WAL-codec "
         "deltas; routed reads cost within noise of primary-epoch reads");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
