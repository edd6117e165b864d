// The serial layer replay and the output check.
//
// After a live run, the benchmark replays what the service served through
// its own QueryEngine, DurableGraph and Replica, recovered from a copy of
// the same store and advanced by the same update stream to each read's
// reported graph_version. Every replayed read must reproduce the served
// relation and ranked list exactly.
//
// In the traced run the replay follows the path the service reported and
// times each call into the modules below the service (a cache hit replays
// ranking only; a direct read replays plan -> seed -> match -> result graph
// -> rank), and each write replays log -> apply -> maintain -> publish ->
// capture -> replica apply -> checkpoint. Untraced runs replay each distinct
// (request, version) once, directly, to check the answers.

#ifndef LOADBENCH_REPLAY_H_
#define LOADBENCH_REPLAY_H_

#include <string>
#include <vector>

#include "live.h"
#include "trace.h"

namespace loadbench {

struct ReplayResult {
  size_t checks = 0;
  size_t mismatches = 0;
  std::vector<std::string> mismatch_examples;  // the first few

  /// Counts one check; records `what` when it failed.
  void Check(bool ok, const std::string& what);

  // Work counts measured where the work happens.
  size_t seeded_candidates = 0;
  size_t kept_pairs = 0;
  size_t ball_hits = 0;
  size_t bfs_fallbacks = 0;
  size_t checkpoints = 0;
  size_t wal_bytes = 0;
  size_t updates_logged = 0;
  std::vector<double> result_nodes;
};

/// Replays `live` against a store recovered from `store_dir` (a private
/// copy the replay may write to). `tracer` enabled = the traced replay.
ReplayResult Replay(const WorkloadSpec& spec, const LiveInputs& inputs,
                    const LiveResult& live, const std::string& store_dir, Tracer* tracer);

}  // namespace loadbench

#endif  // LOADBENCH_REPLAY_H_
