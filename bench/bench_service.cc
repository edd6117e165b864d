// Experiment S1 — serving throughput through the ExpFinderService's
// asynchronous core: serial Query loops vs QueryBatch (both thin wrappers
// over Submit) on a reader-only workload, raw Submit/ticket bursts at
// several worker counts with queue-latency counters, concurrent QueryBatch
// callers on one shared service (PR 3 serialized these behind a mutex; the
// reentrant executor interleaves them), concurrent readers, and a mixed
// read/write stream (Mutate interleaved with batches). The serial loop and
// the batch run evaluate the *same* request list, so serial_ms / batch_ms
// is the batch speedup on this host (1.0x on a single-core machine; the
// fan-out pays off with the cores).

#include <benchmark/benchmark.h>

#include <atomic>
#include <string>
#include <thread>

#include "bench/bench_common.h"
#include "src/expfinder.h"

using namespace expfinder;
using namespace expfinder::bench;

namespace {

constexpr size_t kGraphSize = 8000;
constexpr size_t kBatchRequests = 8;
constexpr int64_t kSubmitOverheadIters = 1 << 17;

Graph* SharedGraph() {
  static Graph g = MakeCollab(kGraphSize, 6);
  return &g;
}

/// Reader-only request list: cache off so every request really evaluates,
/// matcher seeding serial so request-level parallelism owns the cores.
std::vector<QueryRequest> MakeRequests(size_t count) {
  std::vector<QueryRequest> requests(count);
  for (size_t i = 0; i < count; ++i) {
    requests[i].pattern = gen::TeamQuery(static_cast<int>(i % 3));
    requests[i].use_cache = false;
    requests[i].match_threads = 1;
  }
  return requests;
}

ServiceOptions ReaderOptions() {
  ServiceOptions opts;
  opts.engine.use_cache = false;
  opts.engine.match_threads = 1;
  return opts;
}

void BM_ServiceQuerySerial(benchmark::State& state) {
  Graph g = *SharedGraph();
  ExpFinderService service(&g, ReaderOptions());
  auto requests = MakeRequests(kBatchRequests);
  for (auto _ : state) {
    for (const QueryRequest& request : requests) {
      benchmark::DoNotOptimize(service.Query(request));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kBatchRequests));
}
BENCHMARK(BM_ServiceQuerySerial);

void BM_ServiceQueryBatch(benchmark::State& state) {
  Graph g = *SharedGraph();
  ServiceOptions opts = ReaderOptions();
  opts.serving_threads = static_cast<uint32_t>(state.range(0));
  ExpFinderService service(&g, opts);
  auto requests = MakeRequests(kBatchRequests);
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.QueryBatch(requests));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kBatchRequests));
}
BENCHMARK(BM_ServiceQueryBatch)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_ServiceSubmitAsync(benchmark::State& state) {
  // The raw async surface: submit a burst of tickets, then collect. Also
  // reports the mean admission-queue wait per request as a counter, so the
  // BENCH_service.json trajectory tracks queue latency alongside
  // throughput.
  Graph g = *SharedGraph();
  ServiceOptions opts = ReaderOptions();
  opts.serving_threads = static_cast<uint32_t>(state.range(0));
  ExpFinderService service(&g, opts);
  auto requests = MakeRequests(kBatchRequests);
  double queue_ms_total = 0.0;
  size_t responses = 0;
  for (auto _ : state) {
    std::vector<QueryTicket> tickets;
    tickets.reserve(requests.size());
    for (const QueryRequest& request : requests) {
      tickets.push_back(service.Submit(request));
    }
    for (QueryTicket& ticket : tickets) {
      auto response = ticket.Get();
      EF_CHECK(response.ok()) << response.status();
      queue_ms_total += response->queue_ms;
      ++responses;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kBatchRequests));
  state.counters["queue_ms_mean"] =
      responses == 0 ? 0.0 : queue_ms_total / static_cast<double>(responses);
}
BENCHMARK(BM_ServiceSubmitAsync)->Arg(1)->Arg(4)->Arg(8)->UseRealTime();

void BM_ServiceSubmitOverhead(benchmark::State& state) {
  // Submit must cost O(queue push): measured with serving paused so no
  // evaluation ever interleaves — this is the pure admission path
  // (validate + push + ticket). Tickets are completed as Cancelled at
  // service destruction, outside the timed region.
  Graph g = *SharedGraph();
  ServiceOptions opts = ReaderOptions();
  opts.start_paused = true;
  opts.queue_capacity = 1u << 20;
  auto service = std::make_unique<ExpFinderService>(&g, opts);
  QueryRequest request;
  request.pattern = gen::TeamQuery(0);
  std::vector<QueryTicket> tickets;
  tickets.reserve(kSubmitOverheadIters);
  for (auto _ : state) {
    tickets.push_back(service->Submit(request));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
// Pinned iteration count: it must stay under queue_capacity so every timed
// Submit takes the admission path, never the overflow rejection.
BENCHMARK(BM_ServiceSubmitOverhead)->Iterations(kSubmitOverheadIters);

void BM_ServiceConcurrentQueryBatch(benchmark::State& state) {
  // Several threads each driving QueryBatch on ONE shared service: the
  // acceptance check that concurrent batches interleave in the shared
  // admission queue instead of serializing behind PR 3's batch mutex.
  static Graph g = *SharedGraph();
  static ExpFinderService service(&g, ReaderOptions());
  auto requests = MakeRequests(kBatchRequests / 2);
  for (auto _ : state) {
    for (auto& result : service.QueryBatch(requests)) {
      EF_CHECK(result.ok()) << result.status();
    }
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * requests.size()));
}
BENCHMARK(BM_ServiceConcurrentQueryBatch)->Threads(1)->Threads(2)->Threads(4)
    ->UseRealTime();

void BM_ServiceConcurrentReaders(benchmark::State& state) {
  // Shared service, one Query stream per benchmark thread: measures the
  // reader-side scalability of the epoch-snapshot + context-pool design.
  static Graph g = *SharedGraph();
  static ExpFinderService service(&g, ReaderOptions());
  QueryRequest request;
  request.pattern = gen::TeamQuery(state.thread_index() % 3);
  request.use_cache = false;
  request.match_threads = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.Query(request));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ServiceConcurrentReaders)->Threads(1)->Threads(4)->Threads(8)
    ->UseRealTime();

/// A service under continuous write pressure: a dedicated thread applies a
/// Mutate batch (which republishes the epoch snapshot) in a tight loop for
/// as long as the rig lives. Readers in the benchmark body run against it.
struct WriteLoadRig {
  Graph g;
  ExpFinderService service;
  std::atomic<bool> stop{false};
  std::thread writer;

  WriteLoadRig() : g(*SharedGraph()), service(&g, ReaderOptions()) {
    writer = std::thread([this] {
      uint64_t seed = 7;
      while (!stop.load(std::memory_order_acquire)) {
        // The writer thread owns all mutation, so reading `g` to generate
        // the next batch races with nothing.
        UpdateBatch batch = GenerateUpdateStream(g, 4, 0.5, seed++);
        EF_CHECK(service.Mutate(batch).ok());
      }
    });
  }
  ~WriteLoadRig() {
    stop.store(true, std::memory_order_release);
    writer.join();
  }
};

void BM_ServiceReadUnderWriteLoad(benchmark::State& state) {
  // The ISSUE 6 acceptance benchmark: read latency while a writer
  // republishes the epoch continuously. Readers pin immutable snapshots —
  // they never touch the writer lock — so per-read time should track
  // BM_ServiceConcurrentReaders instead of stretching by the write duty
  // cycle (under the PR 3 shared_mutex, every in-flight Mutate stalled
  // every reader). The snapshot lifecycle counters land in
  // BENCH_service.json so the acquire overhead is part of the trajectory.
  static WriteLoadRig rig;
  QueryRequest request;
  request.pattern = gen::TeamQuery(state.thread_index() % 3);
  request.use_cache = false;
  request.match_threads = 1;
  for (auto _ : state) {
    auto response = rig.service.Query(request);
    EF_CHECK(response.ok()) << response.status();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  if (state.thread_index() == 0) {
    ServiceStats s = rig.service.stats();
    state.counters["snapshot_acquires"] = static_cast<double>(s.snapshot_acquires);
    state.counters["snapshots_published"] =
        static_cast<double>(s.snapshots_published);
    state.counters["snapshots_retired"] = static_cast<double>(s.snapshots_retired);
  }
}
BENCHMARK(BM_ServiceReadUnderWriteLoad)->Threads(1)->Threads(4)->UseRealTime();

void BM_ServiceMixedReadWrite(benchmark::State& state) {
  // One writer batch per iteration interleaved with a reader batch: the
  // writer takes the exclusive side, the fan-out the shared side.
  Graph g = *SharedGraph();
  ServiceOptions opts = ReaderOptions();
  opts.serving_threads = 4;
  ExpFinderService service(&g, opts);
  auto requests = MakeRequests(kBatchRequests);
  uint64_t seed = 99;
  for (auto _ : state) {
    UpdateBatch updates = GenerateUpdateStream(g, 8, 0.5, seed++);
    EF_CHECK(service.Mutate(updates).ok());
    benchmark::DoNotOptimize(service.QueryBatch(requests));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kBatchRequests));
}
BENCHMARK(BM_ServiceMixedReadWrite)->UseRealTime();

void BM_ServiceCachedQuery(benchmark::State& state) {
  // The serving fast path: shared cache hit under the reader lock.
  Graph g = *SharedGraph();
  ExpFinderService service(&g);
  QueryRequest request;
  request.pattern = gen::TeamQuery(0);
  (void)service.Query(request);  // warm
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.Query(request));
  }
}
BENCHMARK(BM_ServiceCachedQuery);

void BM_ServiceCachedTopK(benchmark::State& state) {
  // A warm ranked read: a cache hit that also returns the top 10 under one
  // metric (arg 0 social impact, 1 degree, 2 topic fusion). The answer
  // memoizes its ranked lists, so after the warm-up read no iteration ranks.
  // Fusion needs topic-labelled nodes, so every variant runs on the same
  // topic graph (result_nodes reports its result graph's size). Real time:
  // the work runs on a serving worker, not on the timed thread.
  static constexpr RankingMetric kMetrics[] = {RankingMetric::kSocialImpact,
                                               RankingMetric::kDegree,
                                               RankingMetric::kTopicFusion};
  const RankingMetric metric = kMetrics[state.range(0)];
  Graph g = MakeTopicEr(1000);
  ExpFinderService service(&g);
  PatternBuilder b;
  auto expert = b.Node("", "expert");
  expert.Output();
  b.Edge(expert, b.Node("", "peer"), 1);
  QueryRequest request;
  request.pattern = b.Build().value();
  request.topic_terms = {"graph databases"};
  request.metric = metric;
  request.top_k = 10;
  auto warm = service.Query(request);
  EF_CHECK(warm.ok()) << warm.status();
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.Query(request));
  }
  state.SetLabel(std::string(RankingMetricName(metric)));
  state.counters["result_nodes"] =
      static_cast<double>(warm->answer->result_graph.NumNodes());
}
BENCHMARK(BM_ServiceCachedTopK)->Arg(0)->Arg(1)->Arg(2)->UseRealTime();

void ServingSummary() {
  Header("S1 service throughput",
         "Query/QueryBatch are wrappers over the async Submit path; "
         "Mutate serializes against readers without corrupting snapshots");
  Graph g = *SharedGraph();
  ServiceOptions opts = ReaderOptions();
  opts.serving_threads = 0;  // hardware
  ExpFinderService service(&g, opts);
  auto requests = MakeRequests(kBatchRequests);

  Timer serial_timer;
  for (const QueryRequest& request : requests) (void)service.Query(request);
  double serial_ms = serial_timer.ElapsedMillis();

  Timer batch_timer;
  auto results = service.QueryBatch(requests);
  double batch_ms = batch_timer.ElapsedMillis();

  Table t({"mode", "requests", "total (ms)", "speedup"});
  t.AddRow({"serial Query loop", Table::Int(static_cast<int64_t>(requests.size())),
            Table::Num(serial_ms, 2), "1.0x"});
  t.AddRow({"QueryBatch (hw threads)",
            Table::Int(static_cast<int64_t>(results.size())),
            Table::Num(batch_ms, 2),
            Table::Num(serial_ms / std::max(batch_ms, 1e-9), 2) + "x"});
  std::printf("%s\n", t.ToString().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  ServingSummary();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
