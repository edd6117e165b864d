// The live, open-loop half of the benchmark: open ExpFinderService on a
// store holding the generated graph, warm it, then drive it on a fixed
// schedule — one generator thread that Submits reads at their due times and
// never waits for replies, plus one writer thread in write_churn. Every
// latency is timed from the operation's due time.

#ifndef LOADBENCH_LIVE_H_
#define LOADBENCH_LIVE_H_

#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "workload.h"

namespace loadbench {

using expfinder::ExpFinderService;
using expfinder::ServiceStats;
using expfinder::ServingPath;
using expfinder::StatusCode;

/// \brief One read as the benchmark sent it and the service answered it.
struct ReadRecord {
  uint32_t spec = 0;  // index into LiveInputs::requests
  bool ryw = false;   // carried min_version
  /// Part of the post-phase write probe or the final visibility check, not
  /// of the timed phase.
  bool after_phase = false;
  uint64_t min_version = 0;
  Clock::time_point due, submit_begin, submit_end, done;
  StatusCode code = StatusCode::kOk;
  ServingPath path = ServingPath::kDirect;
  uint64_t version = 0;
  double queue_ms = 0.0;
  double eval_ms = 0.0;
  uint64_t relation_fp = 0;
  uint64_t ranked_fp = 0;
  /// CPU time the completing serving thread spent fingerprinting the answer
  /// (benchmark work, kept out of the service's CPU time).
  double fingerprint_cpu_ms = 0.0;

  double LatencyMs() const { return MsBetween(due, done); }
  double LatenessMs() const { return MsBetween(due, submit_begin); }
};

/// \brief One acknowledged (or refused) Mutate.
struct WriteRecord {
  uint32_t batch = 0;
  bool after_phase = false;  // write probe
  Clock::time_point due, start, done;
  StatusCode code = StatusCode::kOk;
  uint64_t version = 0;  // primary version right after the ack

  double LatencyMs() const { return MsBetween(due, done); }
  double LatenessMs() const { return MsBetween(due, start); }
};

/// \brief Everything one live run sends, fixed by the seed.
struct LiveInputs {
  std::vector<QueryRequest> requests;  // distinct requests, referenced by index
  std::vector<QueryRequest> warmup;
  std::vector<uint32_t> timed_reads;   // request index of each timed read
  std::vector<uint8_t> timed_ryw;      // timed read carries min_version
  std::vector<uint32_t> probe_reads;   // read-your-writes reads of the probe
  std::vector<UpdateBatch> batches;
};

LiveInputs MakeLiveInputs(const WorkloadSpec& spec, uint64_t seed, double seconds,
                          std::vector<UpdateBatch> batches);

/// \brief An opened, warmed service.
struct WarmService {
  std::unique_ptr<Graph> graph;  // outlives the service
  std::unique_ptr<ExpFinderService> service;
  double setup_s = 0.0;
};

/// Opens the service on `store_dir` (recovery from the checkpoint),
/// registers maintained queries, waits for every replica to reach the
/// primary's version, and runs the warm-up list. Everything is timed into
/// setup_s.
expfinder::Status OpenWarmService(const WorkloadSpec& spec,
                                  const std::string& store_dir,
                                  const LiveInputs& inputs, WarmService* out);

/// \brief How far the read generator fell behind its schedule (due time
/// to Submit) in the timed phase.
struct Lateness {
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  /// p90_ms within kMaxLatenessP90Share of the phase: the load was the
  /// offered one.
  bool valid = true;
};

/// The generator counts as behind its schedule when more than a tenth of
/// its reads went out later than this share of the phase's length (150 ms
/// in a 15 s phase). One that sends more than about 1 % too slowly crosses
/// it, and so do stalls that add up to more than a tenth of the phase. One
/// the host stalls or time-slices briefly catches up and offers the same
/// load; the latencies, timed from each due time, already carry the delay.
inline constexpr double kMaxLatenessP90Share = 0.01;

/// \brief What a live run observed.
struct LiveResult {
  std::vector<ReadRecord> reads;
  std::vector<WriteRecord> writes;
  std::vector<double> replica_lag_versions;  // sampled before each write
  ServiceStats before;       // at the start of the timed phase
  ServiceStats after_timed;  // once the timed phase is quiescent
  ServiceStats final_stats;  // once the whole run is quiescent
  /// Process CPU time of the timed phase, less the generator's spinning and
  /// the answer fingerprints taken in completion callbacks.
  double timed_cpu_ms = 0.0;
  /// Those fingerprints' CPU time over the timed phase.
  double fingerprint_cpu_ms = 0.0;
  size_t timed_ops = 0;
  double peak_rss_mb = 0.0;  // over the timed phase
  Lateness lateness;
  bool quiesced = false;
};

/// What RunLive does after the timed phase.
enum class AfterPhase {
  kRun,          // the write probe (read-only workloads), then the final read
  kRunIfOnTime,  // the same, unless the generator fell behind its schedule
  kSkip,         // nothing
};

/// Drives the timed phase, then (read-only workloads) the write probe, then
/// one final read-your-writes read, as `after` says, and waits until every
/// ticket completed.
LiveResult RunLive(ExpFinderService* service, const WorkloadSpec& spec,
                   const LiveInputs& inputs, double seconds, AfterPhase after);

}  // namespace loadbench

#endif  // LOADBENCH_LIVE_H_
