// Workload definitions of the open-loop service benchmark: the seeded
// input graph, the popular and cold request spaces, the edge-update stream,
// and the fixed offered rates of hot_read, cold_read and write_churn.
// README.md records why each number is what it is.

#ifndef LOADBENCH_WORKLOAD_H_
#define LOADBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/expfinder.h"

namespace loadbench {

using expfinder::Graph;
using expfinder::Pattern;
using expfinder::QueryRequest;
using expfinder::UpdateBatch;

enum class Workload { kHotRead, kColdRead, kWriteChurn };

inline constexpr Workload kAllWorkloads[] = {
    Workload::kHotRead, Workload::kColdRead, Workload::kWriteChurn};

std::string_view WorkloadName(Workload w);
std::optional<Workload> ParseWorkload(std::string_view name);

/// \brief The fixed shape of one workload.
struct WorkloadSpec {
  Workload workload = Workload::kHotRead;
  /// Offered read rate (requests per second), about a third of the rate at
  /// which this workload saturates (`loadbench calibrate`).
  double read_rate = 0.0;
  /// Offered write rate (Mutate batches per second); 0 = read-only.
  double write_rate = 0.0;
  /// Reads come from the Zipf-drawn popular set (else the cold space).
  bool popular_reads = true;
  /// Replicas behind routed reads.
  size_t replicas = 0;
  /// Patterns registered as incrementally maintained queries.
  bool maintained_queries = false;
  /// Share of reads that carry min_version = latest acknowledged version.
  double ryw_share = 0.0;
};

WorkloadSpec SpecFor(Workload w);

/// Edge updates per Mutate batch.
inline constexpr size_t kBatchSize = 4;
/// Writes of the post-phase probe that read-only workloads run to measure
/// the write path on their own configuration (see README.md).
inline constexpr size_t kProbeWrites = 1000;
/// Every kProbeRywEvery-th probe write is followed by a read-your-writes read.
inline constexpr size_t kProbeRywEvery = 5;
/// Cold requests in the warm-up list (>= 16 matcher runs per snapshot build
/// the ball index; topic predicates among them build the topic index).
inline constexpr size_t kWarmupColdReads = 48;

/// The input graph: TwitterLike labelled with TopicExpertiseModel, always
/// the same; the seed varies the requests and updates sent to it.
Graph MakeGraph();

/// The popular request set, most popular first. Fits the result cache.
std::vector<QueryRequest> PopularSet();
/// Patterns registered as maintained queries in write_churn (members of the
/// popular set, so maintained reads occur).
std::vector<Pattern> MaintainedPatterns();

/// Zipf(1.0) draws over the popular set.
std::vector<uint32_t> PopularDraws(uint64_t seed, size_t count);

/// `count` cold requests, pairwise distinct in (compiled pattern, semantics)
/// and distinct from `exclude`, drawn from a space far larger than the cache.
std::vector<QueryRequest> ColdRequests(uint64_t seed, size_t count,
                                       const std::vector<QueryRequest>& exclude);
/// The fixed cold part of every warm-up list.
std::vector<QueryRequest> WarmupColdRequests();

/// The pattern the service evaluates: topic terms compiled onto the output
/// node.
Pattern CompiledPattern(const QueryRequest& request);

/// Edge-update batches generated on a shadow copy of `g`; valid in order.
std::vector<UpdateBatch> MakeUpdateBatches(const Graph& g, size_t batches,
                                           uint64_t seed);

/// Plain-text update file: one "i|d src dst" line per update, batches
/// separated by a blank line.
bool WriteUpdates(const std::string& path, const std::vector<UpdateBatch>& batches);
std::optional<std::vector<UpdateBatch>> ReadUpdates(const std::string& path);

/// Batches a run of `seconds` may need: the offered writes plus the probe.
size_t BatchesNeeded(const WorkloadSpec& spec, double seconds);

}  // namespace loadbench

#endif  // LOADBENCH_WORKLOAD_H_
