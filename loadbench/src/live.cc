#include "live.h"

#include <malloc.h>

#include <atomic>
#include <memory>
#include <thread>

namespace loadbench {

using namespace expfinder;

namespace {

/// Fills `rec` from a completed ticket; runs on the completing serving
/// thread. The fingerprints are the benchmark's work on that thread; their
/// CPU time is recorded so it can be kept out of the service's.
void Complete(ReadRecord* rec, const Result<QueryResponse>& r) {
  rec->done = Clock::now();
  if (!r.ok()) {
    rec->code = r.status().code();
    return;
  }
  rec->path = r->path;
  rec->version = r->graph_version;
  rec->queue_ms = r->queue_ms;
  rec->eval_ms = r->eval_ms;
  const double t0 = ThreadCpuMs();
  rec->relation_fp = RelationFingerprint(r->answer->matches);
  rec->ranked_fp = RankedFingerprint(r->ranked);
  rec->fingerprint_cpu_ms = ThreadCpuMs() - t0;
}

/// Lateness of the read generator over the timed reads. (A write that
/// starts late waited for the previous Mutate, which the write latencies
/// already charge from its due time.)
Lateness GeneratorLateness(const std::vector<ReadRecord>& reads, size_t timed,
                           double seconds) {
  std::vector<double> late;
  for (size_t i = 0; i < timed; ++i) late.push_back(reads[i].LatenessMs());
  Lateness l;
  l.p90_ms = Percentile(late, 0.90);
  l.p99_ms = Percentile(late, 0.99);
  l.max_ms = late.empty() ? 0.0 : *std::max_element(late.begin(), late.end());
  l.valid = l.p90_ms <= kMaxLatenessP90Share * seconds * 1e3;
  return l;
}

bool WaitFor(const std::atomic<size_t>& counter, size_t target, double timeout_s) {
  const auto deadline = Clock::now() + std::chrono::duration<double>(timeout_s);
  while (counter.load(std::memory_order_acquire) < target) {
    if (Clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

}  // namespace

LiveInputs MakeLiveInputs(const WorkloadSpec& spec, uint64_t seed, double seconds,
                          std::vector<UpdateBatch> batches) {
  LiveInputs in;
  const size_t timed = static_cast<size_t>(spec.read_rate * seconds);
  in.warmup = WarmupColdRequests();
  if (spec.popular_reads) {
    in.requests = PopularSet();
    in.warmup.insert(in.warmup.end(), in.requests.begin(), in.requests.end());
    in.timed_reads = PopularDraws(seed, timed);
  } else {
    // Distinct from the warm-up list and from each other, so the cache
    // never serves a timed read.
    in.requests = ColdRequests(seed, timed, in.warmup);
    for (uint32_t i = 0; i < timed; ++i) in.timed_reads.push_back(i);
  }
  // Reads after the timed phase repeat one fixed request (a popular one, or
  // the first warm-up request); each follows a write, so each misses the
  // cache at a new version.
  uint32_t probe_request = 0;
  if (!spec.popular_reads) {
    probe_request = static_cast<uint32_t>(in.requests.size());
    in.requests.push_back(in.warmup.front());
  }
  in.probe_reads.assign(kProbeWrites / kProbeRywEvery + 1, probe_request);
  Rng rng(seed ^ 0x727977ULL);
  in.timed_ryw.resize(timed);
  for (uint8_t& r : in.timed_ryw) r = rng.NextBool(spec.ryw_share) ? 1 : 0;
  in.batches = std::move(batches);
  return in;
}

Status OpenWarmService(const WorkloadSpec& spec, const std::string& store_dir,
                       const LiveInputs& inputs, WarmService* out) {
  ServiceOptions options;
  options.engine.match_threads = 1;
  options.serving_threads = 2;
  options.durability.dir = store_dir;
  options.durability.fsync_policy = FsyncPolicy::kEveryRecord;
  options.replication.num_replicas = spec.replicas;

  out->service.reset();  // before the graph it serves
  out->graph.reset();
  const Clock::time_point t0 = Clock::now();
  out->graph = std::make_unique<Graph>();
  out->service = std::make_unique<ExpFinderService>(out->graph.get(), options);
  ExpFinderService& svc = *out->service;
  if (!svc.durable() || !svc.recovery_info().from_checkpoint) {
    return Status::IOError("service did not recover the store in " + store_dir + ": " +
                           svc.durability_status().ToString());
  }
  if (spec.maintained_queries) {
    for (const Pattern& q : MaintainedPatterns()) {
      EF_RETURN_NOT_OK(svc.RegisterMaintainedQuery(q));
    }
  }
  if (svc.fleet() != nullptr) {
    const auto deadline = Clock::now() + std::chrono::seconds(60);
    while (true) {
      bool caught_up = true;
      for (const ReplicaStatus& r : svc.fleet()->Replicas()) {
        caught_up = caught_up && r.alive && r.version == svc.version();
      }
      if (caught_up) break;
      if (Clock::now() > deadline) return Status::DeadlineExceeded("replica catch-up");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  for (const QueryRequest& r : inputs.warmup) {
    auto res = svc.Query(r);
    if (!res.ok()) return res.status();
  }
  out->setup_s = std::chrono::duration<double>(Clock::now() - t0).count();
  return Status::OK();
}

LiveResult RunLive(ExpFinderService* service, const WorkloadSpec& spec,
                   const LiveInputs& inputs, double seconds, AfterPhase after) {
  ExpFinderService& svc = *service;
  LiveResult out;
  const size_t timed_reads = inputs.timed_reads.size();
  const size_t timed_writes = static_cast<size_t>(spec.write_rate * seconds);
  const bool probe = after != AfterPhase::kSkip && spec.write_rate == 0.0;
  out.reads.resize(timed_reads + inputs.probe_reads.size());
  out.writes.resize(timed_writes + (probe ? kProbeWrites : 0));

  // Shared with the completion callbacks: a ticket still pending when a run
  // gives up waiting completes (as Cancelled) when the service shuts down.
  auto completed = std::make_shared<std::atomic<size_t>>(0);
  std::atomic<uint64_t> last_acked{svc.version()};
  auto submit = [&](size_t i, uint32_t spec_index, bool ryw, Clock::time_point due) {
    ReadRecord* rec = &out.reads[i];
    rec->spec = spec_index;
    rec->due = due;
    QueryRequest request = inputs.requests[spec_index];
    if (ryw) {
      rec->ryw = true;
      rec->min_version = last_acked.load(std::memory_order_acquire);
      request.min_version = rec->min_version;
    }
    rec->submit_begin = Clock::now();
    QueryTicket ticket = svc.Submit(std::move(request));
    rec->submit_end = Clock::now();
    ticket.OnComplete([rec, completed](const Result<QueryResponse>& r) {
      Complete(rec, r);
      completed->fetch_add(1, std::memory_order_release);
    });
  };
  auto write = [&](size_t j, Clock::time_point due) {
    WriteRecord* rec = &out.writes[j];
    rec->batch = static_cast<uint32_t>(j);
    rec->due = due;
    rec->start = Clock::now();
    Status st = svc.Mutate(inputs.batches[j]);
    rec->done = Clock::now();
    rec->code = st.code();
    // The writer is the only writer, so the epoch right after the ack is
    // exactly this batch's version.
    rec->version = svc.version();
    if (st.ok()) last_acked.store(rec->version, std::memory_order_release);
  };

  out.before = svc.stats();
  // Peak RSS of the timed phase, not of the setups before it: free memory
  // the allocator kept from them goes back to the kernel first.
  malloc_trim(0);
  ResetPeakRss();
  const double cpu0 = ProcessCpuMs();
  // The schedule starts a little ahead so the first due time is not late.
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  auto due_at = [start](size_t i, double rate) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(static_cast<double>(i) / rate));
  };
  std::thread writer;
  if (timed_writes > 0) {
    writer = std::thread([&] {
      for (size_t j = 0; j < timed_writes; ++j) {
        const Clock::time_point due = due_at(j, spec.write_rate);
        std::this_thread::sleep_until(due);
        if (svc.fleet() != nullptr) {
          const uint64_t primary = svc.version();
          for (const ReplicaStatus& r : svc.fleet()->Replicas()) {
            out.replica_lag_versions.push_back(
                static_cast<double>(primary > r.version ? primary - r.version : 0));
          }
        }
        write(j, due);
      }
    });
  }
  // The generator spins to each due time instead of sleeping: a sleeping
  // thread on a virtual CPU wakes milliseconds late often enough to dominate
  // sub-millisecond latencies. Its spinning is the client's cost, not the
  // service's, so the timed CPU excludes this thread except inside Submit.
  const double generator_cpu0 = ThreadCpuMs();
  double submit_cpu_ms = 0.0;
  for (size_t i = 0; i < timed_reads; ++i) {
    const Clock::time_point due = due_at(i, spec.read_rate);
    while (Clock::now() < due) {
    }
    const double t0 = ThreadCpuMs();
    submit(i, inputs.timed_reads[i], inputs.timed_ryw[i] != 0, due);
    submit_cpu_ms += ThreadCpuMs() - t0;
  }
  const double generator_cpu_ms = ThreadCpuMs() - generator_cpu0;
  if (writer.joinable()) writer.join();
  out.quiesced = WaitFor(*completed, timed_reads, 120.0);
  const double timed_cpu_ms = ProcessCpuMs() - cpu0 - generator_cpu_ms + submit_cpu_ms;
  if (out.quiesced) {
    for (size_t i = 0; i < timed_reads; ++i) {
      out.fingerprint_cpu_ms += out.reads[i].fingerprint_cpu_ms;
    }
  }
  out.timed_cpu_ms = timed_cpu_ms - out.fingerprint_cpu_ms;
  out.peak_rss_mb = PeakRssMb();
  out.after_timed = svc.stats();
  out.timed_ops = timed_reads + timed_writes;
  out.lateness = GeneratorLateness(out.reads, timed_reads, seconds);
  const bool after_phase =
      out.quiesced && (after == AfterPhase::kRun ||
                       (after == AfterPhase::kRunIfOnTime && out.lateness.valid));

  // After the phase: read-only workloads probe the write path closed-loop,
  // reading their own writes every kProbeRywEvery writes; every workload
  // ends with one read that must see the last acknowledged write.
  size_t next_read = timed_reads;
  auto read_own_write = [&] {
    submit(next_read, inputs.probe_reads[next_read - timed_reads], true, Clock::now());
    out.reads[next_read].after_phase = true;
    ++next_read;
    WaitFor(*completed, next_read, 60.0);
  };
  if (probe && after_phase) {
    for (size_t j = 0; j < kProbeWrites; ++j) {
      write(j, Clock::now());
      out.writes[j].after_phase = true;
      if ((j + 1) % kProbeRywEvery == 0) read_own_write();
    }
  } else {
    out.writes.resize(timed_writes);
  }
  if (after_phase) read_own_write();
  out.reads.resize(next_read);
  out.quiesced = out.quiesced && WaitFor(*completed, next_read, 60.0);
  out.final_stats = svc.stats();
  return out;
}

}  // namespace loadbench
