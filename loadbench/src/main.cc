// loadbench: the open-loop end-to-end benchmark of ExpFinderService.
//
//   loadbench prepare --workload W --seed N --seconds T --dir D
//       Generates the seeded graph and update stream, writes the store
//       (a checkpoint of the graph) to D/store and the updates to
//       D/updates.txt. Runs in its own process so the measured process
//       never holds the input graph.
//   loadbench run --workload W --seed N --seconds T --trace 0|1 --dir D
//                 [--report FILE] [--trace-out FILE]
//       --trace 0: sets up the service several times (setup_s is the
//       median), drives one timed open-loop phase, checks every answer by
//       replay, and prints the end-to-end metrics.
//       --trace 1: one setup and the same timed phase, then the traced
//       layer replay, which also checks every answer; prints the per-layer
//       metrics and the per-layer self-time summary.
//       A timed phase whose generator fell behind its schedule is discarded
//       and run again on a fresh setup; when every attempt fell behind, the
//       run prints no result and exits with code 3.
//   The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
//   loadbench calibrate --workload W --seed N --seconds T --dir D
//       Open-loop rate sweep of one workload on a prepared store (see
//       Calibrate below); how the offered rates in workload.cc were sized.

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "live.h"
#include "replay.h"
#include "trace.h"
#include "workload.h"

namespace loadbench {
namespace {

using namespace expfinder;
namespace fs = std::filesystem;

/// Setups per untraced run; setup_s is their median.
constexpr int kSetupRepeats = 5;
/// Timed phases a run may make before it gives up as invalid.
constexpr int kMaxAttempts = 3;
/// Exit code of a run whose every timed phase fell behind its schedule.
constexpr int kExitInvalid = 3;
/// Windows of the timed phase that read percentiles take the median over.
constexpr size_t kWindows = 5;
/// The end-to-end metrics of the result JSON, the ones a comparison can
/// bound. The latency percentiles are printed with their sample counts but
/// left out: on a shared virtual machine their run-to-run spread exceeds any
/// bound a comparison may use (see README.md). failed_pct is carried as
/// ok_pct, which is never 0.
const std::set<std::string> kBoundedMetrics = {"setup_s", "cpu_ms_per_op", "peak_rss_mb",
                                               "ok_pct"};

/// Every span name the live run and the replay record, by layer.
constexpr const char* kTracedFunctions[] = {
    "service.read",          "service.mutate",        "query.compile",
    "engine.plan",           "engine.apply_updates",  "engine.publish",
    "matching.seed",         "matching.match",        "matching.result_graph",
    "index.topic_build",     "graph.capture",         "graph.ball_build",
    "ranking.social_impact", "ranking.topic_fusion",  "ranking.other",
    "incremental.maintain",  "storage.recover",       "storage.log",
    "storage.checkpoint",    "replication.apply",     "replication.bootstrap",
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
};

struct Args {
  std::string mode;
  Workload workload = Workload::kHotRead;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string dir;
  std::string report;
  std::string trace_out;
};

int Usage() {
  std::fprintf(stderr,
               "usage: loadbench prepare|run|calibrate "
               "--workload hot_read|cold_read|write_churn "
               "--seed N --seconds T --dir D [--trace 0|1] [--report FILE] "
               "[--trace-out FILE]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  if (argc < 2) return false;
  a->mode = argv[1];
  if (a->mode != "prepare" && a->mode != "run" && a->mode != "calibrate") return false;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      auto w = ParseWorkload(value);
      if (!w) return false;
      a->workload = *w;
    } else if (key == "--seed") {
      a->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return false;
    } else if (key == "--seconds") {
      a->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(a->seconds > 0.0 && a->seconds <= 120.0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      a->trace = value == "1";
    } else if (key == "--dir") {
      a->dir = value;
    } else if (key == "--report") {
      a->report = value;
    } else if (key == "--trace-out") {
      a->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 0 && !a->dir.empty();
}

int Prepare(const Args& a) {
  const WorkloadSpec spec = SpecFor(a.workload);
  Graph g = MakeGraph();
  std::vector<UpdateBatch> batches =
      MakeUpdateBatches(g, BatchesNeeded(spec, a.seconds), a.seed);
  fs::remove_all(a.dir);
  fs::create_directories(a.dir);
  DurabilityOptions options;
  options.dir = a.dir + "/store";
  GraphRecoveryInfo info;
  auto durable = DurableGraph::Open(options, &g, &info);  // checkpoints g
  if (!durable.ok()) {
    std::fprintf(stderr, "prepare: %s\n", durable.status().ToString().c_str());
    return 1;
  }
  if (!WriteUpdates(a.dir + "/updates.txt", batches)) {
    std::fprintf(stderr, "prepare: cannot write %s/updates.txt\n", a.dir.c_str());
    return 1;
  }
  std::printf("prepared %s seed %llu: %zu nodes, %zu edges, %zu update batches\n",
              std::string(WorkloadName(a.workload)).c_str(),
              static_cast<unsigned long long>(a.seed), g.NumNodes(), g.NumEdges(),
              batches.size());
  return 0;
}

/// A fresh copy of the prepared store, so every opened service recovers the
/// same checkpoint and nothing an earlier one wrote leaks into the next.
std::string CopyStore(const Args& a, const std::string& name) {
  const std::string dst = a.dir + "/" + name;
  fs::remove_all(dst);
  fs::copy(a.dir + "/store", dst, fs::copy_options::recursive);
  return dst;
}

/// Read latencies of `reads` passing `keep`; failed reads are +inf (they
/// miss every latency limit).
template <typename Keep>
std::vector<double> ReadLatencies(const std::vector<ReadRecord>& reads, Keep keep) {
  std::vector<double> out;
  for (const ReadRecord& r : reads) {
    if (!keep(r)) continue;
    out.push_back(r.code == StatusCode::kOk ? r.LatencyMs()
                                            : std::numeric_limits<double>::infinity());
  }
  return out;
}

std::vector<double> WriteLatencies(const std::vector<WriteRecord>& writes) {
  std::vector<double> out;
  for (const WriteRecord& w : writes) {
    out.push_back(w.code == StatusCode::kOk ? w.LatencyMs()
                                            : std::numeric_limits<double>::infinity());
  }
  return out;
}

struct Outcomes {
  size_t attempted = 0;
  size_t failed = 0;
  std::map<std::string, size_t> reads_by_code, writes_by_code;
};

Outcomes CountOutcomes(const LiveResult& live) {
  Outcomes o;
  for (const ReadRecord& r : live.reads) ++o.reads_by_code[StatusCodeName(r.code)];
  for (const WriteRecord& w : live.writes) ++o.writes_by_code[StatusCodeName(w.code)];
  o.attempted = live.reads.size() + live.writes.size();
  o.failed = o.attempted - o.reads_by_code["ok"] - o.writes_by_code["ok"];
  return o;
}

/// The median over up to kWindows consecutive, equal windows of `v` (in
/// schedule order) of each window's q-th percentile, using only as many
/// windows as leave ten samples beyond q in each: one burst of host noise
/// moves one window, not the result.
double WindowedPercentile(const std::vector<double>& v, double q) {
  size_t windows = kWindows;
  while (windows > 1 && !PercentileSupported(v.size() / windows, q)) --windows;
  const size_t size = v.size() / windows;
  std::vector<double> per_window;
  for (size_t w = 0; w < windows; ++w) {
    per_window.push_back(
        Percentile(std::vector<double>(v.begin() + w * size, v.begin() + (w + 1) * size), q));
  }
  return Median(per_window);
}

/// The nine end-to-end metrics of one live run (failed_pct and its
/// complement ok_pct both; the JSON carries ok_pct, which is never 0).
std::vector<Metric> EndToEnd(const LiveResult& live, const std::vector<double>& setups) {
  auto timed = [](const ReadRecord& r) { return !r.after_phase; };
  // Read-your-writes reads: the timed ones in write_churn, the probe's in
  // read-only workloads; never the final visibility check (the last read).
  const ReadRecord* final_check = live.reads.empty() ? nullptr : &live.reads.back();
  auto ryw = [final_check](const ReadRecord& r) { return r.ryw && &r != final_check; };
  const std::vector<double> reads = ReadLatencies(live.reads, timed);
  const std::vector<double> ryw_reads = ReadLatencies(live.reads, ryw);
  const std::vector<double> writes = WriteLatencies(live.writes);
  const Outcomes o = CountOutcomes(live);
  const double failed_pct =
      o.attempted == 0 ? 0.0 : 100.0 * static_cast<double>(o.failed) / o.attempted;
  return {
      {"setup_s", Median(setups), "s", setups.size()},
      {"read_p50_ms", WindowedPercentile(reads, 0.50), "ms", reads.size()},
      {"read_p99_ms", WindowedPercentile(reads, 0.99), "ms", reads.size()},
      {"write_p50_ms", WindowedPercentile(writes, 0.50), "ms", writes.size()},
      {"write_p99_ms", WindowedPercentile(writes, 0.99), "ms", writes.size()},
      {"ryw_read_p50_ms", WindowedPercentile(ryw_reads, 0.50), "ms", ryw_reads.size()},
      {"cpu_ms_per_op", live.timed_cpu_ms / static_cast<double>(live.timed_ops), "ms",
       live.timed_ops},
      {"peak_rss_mb", live.peak_rss_mb, "MiB", 1},
      {"failed_pct", failed_pct, "%", o.attempted},
      {"ok_pct", 100.0 - failed_pct, "%", o.attempted},
  };
}

double Share(size_t part, size_t whole) {
  return whole == 0 ? 0.0 : static_cast<double>(part) / static_cast<double>(whole);
}

/// Per-layer metrics of the traced run.
std::vector<Metric> PerLayer(const LiveResult& live, const Tracer& tracer,
                             const ReplayResult& replay) {
  std::vector<Metric> m;
  auto dist = [&](const std::string& span, const std::string& metric, double scale,
                  const std::string& unit, std::initializer_list<double> qs) {
    const std::vector<double> d = tracer.Durations(span);
    for (double q : qs) {
      std::vector<double> v = d;
      for (double& x : v) x *= scale;
      char suffix[16];
      std::snprintf(suffix, sizeof suffix, ".p%g", q * 100);
      m.push_back({metric + suffix, Percentile(v, q), unit, d.size()});
    }
  };
  // Service layer, from the live run's responses.
  std::vector<double> queue, serve, submit;
  size_t cache = 0, maintained = 0, direct = 0, ok = 0, timed = 0;
  for (const ReadRecord& r : live.reads) {
    if (r.after_phase) continue;
    ++timed;
    submit.push_back(MsBetween(r.submit_begin, r.submit_end) * 1e3);
    if (r.code != StatusCode::kOk) continue;
    ++ok;
    queue.push_back(r.queue_ms);
    serve.push_back(r.eval_ms - r.queue_ms);
    cache += r.path == ServingPath::kCache;
    maintained += r.path == ServingPath::kMaintained;
    direct += r.path == ServingPath::kDirect || r.path == ServingPath::kPlannerShortCircuit;
  }
  const Outcomes o = CountOutcomes(live);
  m.push_back({"service.queue_ms.p50", Percentile(queue, 0.5), "ms", queue.size()});
  m.push_back({"service.queue_ms.p99", Percentile(queue, 0.99), "ms", queue.size()});
  m.push_back({"service.serve_ms.p50", Percentile(serve, 0.5), "ms", serve.size()});
  m.push_back({"service.serve_ms.p99", Percentile(serve, 0.99), "ms", serve.size()});
  m.push_back({"service.submit_us.p50", Percentile(submit, 0.5), "us", submit.size()});
  m.push_back({"service.cache_share", Share(cache, ok), "ratio", ok});
  m.push_back({"service.maintained_share", Share(maintained, ok), "ratio", ok});
  m.push_back({"service.direct_share", Share(direct, ok), "ratio", ok});
  m.push_back({"service.failed", static_cast<double>(o.failed), "count", o.attempted});

  // Layers below the service, from the replay.
  dist("query.compile", "query.compile_us", 1e3, "us", {0.5});
  dist("engine.plan", "engine.plan_us", 1e3, "us", {0.5});
  dist("engine.apply_updates", "engine.apply_updates_ms", 1, "ms", {0.5, 0.99});
  dist("engine.publish", "engine.publish_ms", 1, "ms", {0.5, 0.99});
  dist("matching.seed", "matching.seed_ms", 1, "ms", {0.5});
  dist("matching.match", "matching.match_ms", 1, "ms", {0.5, 0.99});
  dist("matching.result_graph", "matching.result_graph_ms", 1, "ms", {0.5});
  m.push_back({"matching.kept_ratio", Share(replay.kept_pairs, replay.seeded_candidates),
               "ratio", replay.seeded_candidates});
  m.push_back({"matching.ball_hit_ratio",
               Share(replay.ball_hits, replay.ball_hits + replay.bfs_fallbacks), "ratio",
               replay.ball_hits + replay.bfs_fallbacks});
  const size_t postings = live.after_timed.posting_hits - live.before.posting_hits;
  const size_t scans =
      live.after_timed.seed_scan_fallbacks - live.before.seed_scan_fallbacks;
  m.push_back({"index.posting_hit_ratio", Share(postings, postings + scans), "ratio",
               postings + scans});
  dist("index.topic_build", "index.topic_build_ms", 1, "ms", {0.5});
  m.back().name = "index.topic_build_ms";
  dist("graph.capture", "graph.capture_ms", 1, "ms", {0.5});
  dist("graph.ball_build", "graph.ball_build_ms", 1, "ms", {0.5});
  dist("ranking.social_impact", "ranking.social_impact_ms", 1, "ms", {0.5, 0.99});
  dist("ranking.topic_fusion", "ranking.topic_fusion_ms", 1, "ms", {0.5, 0.99});
  dist("ranking.other", "ranking.other_ms", 1, "ms", {0.5});
  m.push_back({"ranking.result_nodes.p50", Percentile(replay.result_nodes, 0.5), "count",
               replay.result_nodes.size()});
  dist("incremental.maintain", "incremental.maintain_ms", 1, "ms", {0.5, 0.99});
  dist("storage.recover", "storage.recover_ms", 1, "ms", {0.5});
  m.back().name = "storage.recover_ms";
  dist("storage.log", "storage.log_ms", 1, "ms", {0.5, 0.99});
  dist("storage.checkpoint", "storage.checkpoint_ms", 1, "ms", {0.5});
  m.push_back({"storage.checkpoints", static_cast<double>(replay.checkpoints), "count", 1});
  m.push_back({"storage.bytes_per_update", Share(replay.wal_bytes, replay.updates_logged),
               "B/update", replay.updates_logged});
  dist("replication.apply", "replication.apply_ms", 1, "ms", {0.5, 0.99});
  m.push_back({"replication.lag_versions.p99", Percentile(live.replica_lag_versions, 0.99),
               "versions", live.replica_lag_versions.size()});
  const ServiceStats& b = live.before;
  const ServiceStats& a = live.after_timed;
  m.push_back({"replication.routed_share", Share(a.routed_reads - b.routed_reads, timed),
               "ratio", timed});
  m.push_back({"replication.fallback_share",
               Share(a.routed_fallbacks - b.routed_fallbacks, timed), "ratio", timed});
  m.push_back({"replication.retried_reads",
               static_cast<double>(a.retried_reads - b.retried_reads), "count", timed});
  dist("replication.bootstrap", "replication.bootstrap_ms", 1, "ms", {0.5});
  m.back().name = "replication.bootstrap_ms";

  // Calls of every traced function (0 where the workload never calls it).
  const auto totals = tracer.Totals();
  for (const char* name : kTracedFunctions) {
    auto it = totals.find(name);
    const size_t calls = it == totals.end() ? 0 : it->second.calls;
    m.push_back({std::string(name) + ".calls", static_cast<double>(calls), "count", 1});
  }
  return m;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "1e308";  // a failed op at the percentile
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void PrintTable(const std::string& title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title.c_str());
  for (const Metric& m : metrics) {
    std::printf("  %-36s %14.6g %-9s n=%zu\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.samples);
  }
}

/// Read-latency CDF of the timed phase around p50 and p99: a percentile on a
/// gap between request classes shows as a jump between neighbouring rows.
std::vector<std::pair<double, double>> ReadCdf(const LiveResult& live) {
  const std::vector<double> reads =
      ReadLatencies(live.reads, [](const ReadRecord& r) { return !r.after_phase; });
  std::vector<std::pair<double, double>> cdf;
  for (double q : {0.40, 0.45, 0.48, 0.50, 0.52, 0.55, 0.60, 0.95, 0.97, 0.98, 0.985, 0.99,
                   0.995, 0.999}) {
    cdf.emplace_back(q, Percentile(reads, q));
  }
  return cdf;
}

void PrintSummary(const Tracer& tracer) {
  std::printf("per-layer self time (traced replay + live service calls)\n");
  std::map<std::string, Tracer::NameTotals> layers;
  for (const auto& [name, t] : tracer.Totals()) {
    std::printf("  %-28s calls %7zu  total %10.3f ms  self %10.3f ms\n", name.c_str(),
                t.calls, t.total_ms, t.self_ms);
    Tracer::NameTotals& l = layers[name.substr(0, name.find('.'))];
    l.calls += t.calls;
    l.total_ms += t.total_ms;
    l.self_ms += t.self_ms;
  }
  for (const auto& [layer, t] : layers) {
    std::printf("  layer %-22s calls %7zu  self %10.3f ms\n", layer.c_str(), t.calls,
                t.self_ms);
  }
}

/// Rate factors of the calibration sweep.
constexpr double kSweepFactors[] = {1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0};

/// Open-loop rate sweep of one workload: its offered rates (reads and, in
/// write_churn, writes alike, with its replicas, maintained queries and
/// read-your-writes share) scaled by each factor in turn, each on a freshly
/// set-up service for --seconds. The service keeps up with a factor when no
/// operation failed, every ticket completed, the read p50 of the last fifth
/// of the phase stays within twice that of the first fifth (no growing
/// backlog), and the writer ends the phase less than one write interval
/// behind its schedule. The sweep stops at the first factor it does not keep
/// up with: the workload saturates there, and its offered rates
/// (factor 1) should be about a third of that.
int Calibrate(const Args& a) {
  const WorkloadSpec base = SpecFor(a.workload);
  auto batches = ReadUpdates(a.dir + "/updates.txt");
  if (!batches) {
    std::fprintf(stderr, "calibrate: missing %s/updates.txt (run prepare first)\n",
                 a.dir.c_str());
    return 1;
  }
  std::printf("%s rate sweep, %.0f s per step; factor 1 = %.0f reads/s, %.0f writes/s\n",
              std::string(WorkloadName(a.workload)).c_str(), a.seconds, base.read_rate,
              base.write_rate);
  std::printf("%6s %8s %8s %8s %8s %8s %8s %8s %8s %8s %8s %6s  %s\n", "factor", "reads/s",
              "writes/s", "done/s", "rd_p50", "rd_p99", "p50_1st", "p50_last", "wr_p50",
              "wr_p99", "wr_late", "failed", "verdict");
  for (double f : kSweepFactors) {
    WorkloadSpec spec = base;
    spec.read_rate *= f;
    spec.write_rate *= f;
    if (batches->size() < static_cast<size_t>(spec.write_rate * a.seconds)) {
      std::fprintf(stderr, "calibrate: %s/updates.txt is too short for factor %g\n",
                   a.dir.c_str(), f);
      return 1;
    }
    const LiveInputs inputs = MakeLiveInputs(spec, a.seed, a.seconds, *batches);
    WarmService warm;
    if (Status st = OpenWarmService(spec, CopyStore(a, "calibrate"), inputs, &warm);
        !st.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
      return 1;
    }
    const LiveResult live =
        RunLive(warm.service.get(), spec, inputs, a.seconds, AfterPhase::kSkip);
    const std::vector<double> reads =
        ReadLatencies(live.reads, [](const ReadRecord&) { return true; });
    const std::vector<double> writes = WriteLatencies(live.writes);
    const size_t fifth = reads.size() / 5;
    const double p50_first =
        Percentile(std::vector<double>(reads.begin(), reads.begin() + fifth), 0.5);
    const double p50_last =
        Percentile(std::vector<double>(reads.end() - fifth, reads.end()), 0.5);
    std::vector<double> write_late;  // over the last fifth of the writes
    for (size_t j = live.writes.size() - live.writes.size() / 5; j < live.writes.size(); ++j) {
      write_late.push_back(live.writes[j].LatenessMs());
    }
    Clock::time_point last_done = live.reads.front().done;
    for (const ReadRecord& r : live.reads) last_done = std::max(last_done, r.done);
    const double done_per_s =
        1e3 * static_cast<double>(live.reads.size()) /
        MsBetween(live.reads.front().due, last_done);
    const Outcomes o = CountOutcomes(live);
    const bool keeps_up = live.quiesced && o.failed == 0 && p50_last <= 2.0 * p50_first &&
                          (spec.write_rate == 0.0 || Median(write_late) < 1e3 / spec.write_rate);
    std::printf("%6.2f %8.0f %8.0f %8.1f %8.3f %8.3f %8.3f %8.3f %8.3f %8.3f %8.3f %6zu  %s%s\n",
                f, spec.read_rate, spec.write_rate, done_per_s, Percentile(reads, 0.5),
                Percentile(reads, 0.99), p50_first, p50_last, Percentile(writes, 0.5),
                Percentile(writes, 0.99), Median(write_late), o.failed,
                keeps_up ? "keeps up" : "saturated",
                live.lateness.valid ? "" : " (read generator fell behind)");
    std::fflush(stdout);
    if (!keeps_up) {
      std::printf("saturates at factor %g: the offered rates are 1/%g of it\n", f, f);
      return 0;
    }
  }
  std::printf("kept up at every factor\n");
  return 0;
}

int Run(const Args& a) {
  const WorkloadSpec spec = SpecFor(a.workload);
  const std::string name(WorkloadName(a.workload));
  auto batches = ReadUpdates(a.dir + "/updates.txt");
  if (!batches || batches->size() < BatchesNeeded(spec, a.seconds)) {
    std::fprintf(stderr, "run: missing or short %s/updates.txt (run prepare first)\n",
                 a.dir.c_str());
    return 1;
  }
  const LiveInputs inputs = MakeLiveInputs(spec, a.seed, a.seconds, std::move(*batches));

  // setup_s is the median of every setup made: kSetupRepeats before the
  // first timed phase (one when traced), one before each further attempt.
  // The last opened service runs the timed phase. A phase whose generator
  // fell behind its schedule did not offer the load; it is discarded and
  // run again on a fresh setup.
  std::vector<double> setups;
  LiveResult live;
  int attempts = 0;
  while (attempts < kMaxAttempts) {
    ++attempts;
    WarmService warm;
    const int repeats = a.trace || attempts > 1 ? 1 : kSetupRepeats;
    for (int i = 0; i < repeats; ++i) {
      Status st = OpenWarmService(spec, CopyStore(a, "service-" + std::to_string(i)),
                                  inputs, &warm);
      if (!st.ok()) {
        std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
        return 1;
      }
      setups.push_back(warm.setup_s);
    }
    // A phase that will be discarded skips the write probe and final read.
    live = RunLive(warm.service.get(), spec, inputs, a.seconds,
                   attempts < kMaxAttempts ? AfterPhase::kRunIfOnTime : AfterPhase::kRun);
    if (live.lateness.valid) break;
    std::printf("attempt %d: generator lateness p90 %.3f ms, p99 %.3f ms, max %.3f ms: it "
                "fell behind its schedule; phase discarded\n",
                attempts, live.lateness.p90_ms, live.lateness.p99_ms, live.lateness.max_ms);
  }
  const Lateness& lateness = live.lateness;
  const std::vector<Metric> e2e = EndToEnd(live, setups);

  // The output check: replay every answer, plus the live invariants. The
  // traced replay follows each read's reported path and times the layers;
  // the live spans are built from the same run's records.
  Tracer tracer(a.trace);
  if (a.trace) {
    for (size_t i = 0; i < live.reads.size(); ++i) {
      tracer.AddLive("service.read", live.reads[i].submit_begin, live.reads[i].done, i);
    }
    for (size_t j = 0; j < live.writes.size(); ++j) {
      tracer.AddLive("service.mutate", live.writes[j].start, live.writes[j].done,
                     live.reads.size() + j);
    }
  }
  const Clock::time_point replay_start = Clock::now();
  ReplayResult replay = Replay(spec, inputs, live, CopyStore(a, "replay"), &tracer);
  const double replay_s = MsBetween(replay_start, Clock::now()) / 1e3;
  auto check = [&replay](bool ok, const std::string& what) { replay.Check(ok, what); };
  check(live.quiesced, "the run did not quiesce");
  check(live.final_stats.ClassifiedQueries() == live.final_stats.queries,
        "ServiceStats::ClassifiedQueries() != queries at quiescence");
  for (const ReadRecord& r : live.reads) {
    if (r.ryw && r.code == StatusCode::kOk) {
      check(r.version >= r.min_version, "a read-your-writes read saw an older version");
    }
  }
  const ReadRecord* final_read = live.reads.empty() ? nullptr : &live.reads.back();
  for (const WriteRecord& w : live.writes) {
    if (w.code != StatusCode::kOk) continue;
    check(final_read != nullptr && final_read->code == StatusCode::kOk &&
              final_read->version >= w.version,
          "an acknowledged write is not visible to the final read-your-writes read");
  }
  const bool correct = replay.mismatches == 0;

  // Report.
  const Outcomes o = CountOutcomes(live);
  std::printf("workload %s seed %llu: %.0f s open loop, %.0f reads/s",
              name.c_str(), static_cast<unsigned long long>(a.seed), a.seconds,
              spec.read_rate);
  if (spec.write_rate > 0) std::printf(", %.0f writes/s", spec.write_rate);
  std::printf("\n");
  PrintTable("end-to-end (untraced)", e2e);
  std::printf("outcomes: reads");
  for (const auto& [code, n] : o.reads_by_code) std::printf(" %s=%zu", code.c_str(), n);
  std::printf("; writes");
  for (const auto& [code, n] : o.writes_by_code) std::printf(" %s=%zu", code.c_str(), n);
  std::printf("\ngenerator lateness: p90 %.3f ms, p99 %.3f ms, max %.3f ms -> %s (attempt %d "
              "of %d)\n",
              lateness.p90_ms, lateness.p99_ms, lateness.max_ms,
              lateness.valid ? "valid" : "INVALID (generator fell behind)", attempts,
              kMaxAttempts);
  const size_t timed_reads = inputs.timed_reads.size();
  std::printf("answer fingerprints in completion callbacks: %.3f ms CPU, %.2f us per read, "
              "%.3f%% of the timed phase's CPU (kept out of cpu_ms_per_op)\n",
              live.fingerprint_cpu_ms, 1e3 * live.fingerprint_cpu_ms / timed_reads,
              100.0 * live.fingerprint_cpu_ms / (live.timed_cpu_ms + live.fingerprint_cpu_ms));
  const auto cdf = ReadCdf(live);
  std::printf("read latency CDF:");
  for (const auto& [q, ms] : cdf) std::printf(" q%.3f=%.3f", q, ms);
  std::printf("\n");
  std::printf("output check: %zu checks, %zu mismatches\n", replay.checks,
              replay.mismatches);
  for (const std::string& e : replay.mismatch_examples) {
    std::printf("  mismatch: %s\n", e.c_str());
  }

  std::vector<Metric> per_layer;
  if (a.trace) {
    per_layer = PerLayer(live, tracer, replay);
    PrintTable("per-layer (traced)", per_layer);
    PrintSummary(tracer);
    std::printf("tracing overhead on the end-to-end metrics: 0 by construction (the live "
                "phase runs the same code traced or not; its spans are built from its "
                "records afterwards); the traced replay took %.1f s after it\n",
                replay_s);
    if (!a.trace_out.empty()) {
      std::printf("chrome trace: %s (%zu spans)\n", a.trace_out.c_str(), tracer.size());
      tracer.WriteChromeTrace(a.trace_out);
    }
  }

  std::string metrics;
  for (const Metric& m : a.trace ? per_layer : e2e) {
    if (!a.trace && !kBoundedMetrics.count(m.name)) continue;  // printed above only
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + JsonNumber(m.value) + ", \"unit\": \"" +
               m.unit + "\"}";
  }
  if (!a.report.empty()) {
    std::ofstream f(a.report);
    f << "{\"workload\": \"" << name << "\", \"seed\": " << a.seed
      << ", \"valid\": " << (lateness.valid ? "true" : "false")
      << ", \"attempts\": " << attempts
      << ", \"lateness_p90_ms\": " << JsonNumber(lateness.p90_ms)
      << ", \"lateness_p99_ms\": " << JsonNumber(lateness.p99_ms)
      << ", \"lateness_max_ms\": " << JsonNumber(lateness.max_ms)
      << ", \"fingerprint_cpu_ms\": " << JsonNumber(live.fingerprint_cpu_ms)
      << ", \"checks\": " << replay.checks << ", \"mismatches\": " << replay.mismatches
      << ", \"samples\": {";
    for (size_t i = 0; i < e2e.size(); ++i) {
      f << (i ? ", " : "") << "\"" << e2e[i].name << "\": " << e2e[i].samples;
    }
    f << "}, \"e2e\": {";
    for (size_t i = 0; i < e2e.size(); ++i) {
      f << (i ? ", " : "") << "\"" << e2e[i].name << "\": " << JsonNumber(e2e[i].value);
    }
    f << "}, \"read_cdf\": [";
    for (size_t i = 0; i < cdf.size(); ++i) {
      f << (i ? ", " : "") << "[" << cdf[i].first << ", " << JsonNumber(cdf[i].second)
        << "]";
    }
    f << "]}\n";
  }
  if (correct && !lateness.valid) {
    std::printf("no result: the generator fell behind its schedule in all %d timed phases\n",
                attempts);
    return kExitInvalid;
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", o.attempted, o.failed, metrics.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace loadbench

int main(int argc, char** argv) {
  // Fixed allocator thresholds. By default glibc raises its mmap threshold
  // to the largest block freed so far (up to 32 MiB); blocks of that size
  // then stay resident in the arena of whichever thread freed them, and the
  // peak RSS of a run depends on thread scheduling. 8 MiB = twice the mmap
  // threshold, the ratio glibc keeps itself.
  mallopt(M_MMAP_THRESHOLD, 4 << 20);
  mallopt(M_TRIM_THRESHOLD, 8 << 20);
  loadbench::Args args;
  if (!loadbench::ParseArgs(argc, argv, &args)) return loadbench::Usage();
  if (args.mode == "prepare") return loadbench::Prepare(args);
  if (args.mode == "calibrate") return loadbench::Calibrate(args);
  return loadbench::Run(args);
}
