#include "src/matching/match_context.h"

#include <algorithm>

#include "src/index/topic_index.h"
#include "src/util/logging.h"

namespace expfinder {

namespace {
/// Below this many scanned entries per worker, dispatching a pool worker
/// costs more than the slice it takes over: on a 4-vCPU host, splitting the
/// seeding scans of BM_Simulation at 64k nodes (about 42k entries per
/// pattern node) over pool workers ran slower than one thread.
constexpr size_t kMinScanEntriesPerWorker = size_t{1} << 16;

template <typename T>
size_t CapacityWordsOf(const std::vector<T>& v) {
  return (v.capacity() * sizeof(T) + sizeof(uint64_t) - 1) / sizeof(uint64_t);
}
}  // namespace

size_t SupportPairs::CapacityWords() const {
  size_t words = CapacityWordsOf(rank);
  for (const auto& list : candidates) words += CapacityWordsOf(list);
  for (const Edge& e : edges) {
    words += CapacityWordsOf(e.offsets) + CapacityWordsOf(e.pairs) +
             CapacityWordsOf(e.live_targets) + CapacityWordsOf(e.live_sources) +
             CapacityWordsOf(e.rev_offsets) + CapacityWordsOf(e.rev_sources);
  }
  return words;
}

void MatchContext::BindSnapshot(SnapshotPtr snapshot) {
  if (snapshot == nullptr && snapshot_ != nullptr &&
      pairs_.CapacityWords() > kIdlePairWordsPerNode * snapshot_->csr().NumNodes()) {
    pairs_ = SupportPairs();
  }
  snapshot_ = std::move(snapshot);
}

const KhopIndex* MatchContext::BallIndexFor(Distance depth,
                                            const BallIndexOptions& limits,
                                            uint32_t num_threads) {
  EF_DCHECK(snapshot_ != nullptr) << "BallIndexFor needs a bound snapshot";
  const size_t workers = SeedWorkers(num_threads, snapshot_->csr().NumEdges());
  // The pool is created only if the snapshot decides to build.
  auto pool = [this, workers]() -> ThreadPool* {
    return workers > 1 ? &Pool(workers) : nullptr;
  };
  bool built_now = false;
  const KhopIndex* index = snapshot_->BallIndex(depth, limits, pool, workers, &built_now);
  if (built_now) ++ball_index_builds_;
  return index;
}

const TopicIndex* MatchContext::TopicIndexFor(const Graph& g,
                                              const TopicIndexOptions& limits) {
  if (snapshot_ == nullptr || &snapshot_->graph() != &g) return nullptr;
  bool built_now = false;
  const TopicIndex* topics = snapshot_->TopicIndexFor(limits, &built_now);
  if (built_now) ++topic_index_builds_;
  return topics;
}

void MatchContext::EnsureBuffers(size_t num_workers, size_t n) {
  while (buffers_.size() < num_workers) buffers_.emplace_back();
  for (size_t i = 0; i < num_workers; ++i) buffers_[i].EnsureSize(n);
}

ThreadPool& MatchContext::Pool(size_t num_workers) {
  if (pool_ == nullptr || pool_->num_workers() < num_workers) {
    pool_ = std::make_unique<ThreadPool>(num_workers);
  }
  return *pool_;
}

size_t MatchContext::SeedWorkers(uint32_t requested, size_t work_items) const {
  if (work_items == 0) return 1;
  size_t threads = ThreadPool::ResolveThreads(requested);
  if (requested == 0) {
    // Auto mode: don't spin up workers for small scans.
    threads = std::min(threads, std::max<size_t>(1, work_items / kMinScanEntriesPerWorker));
  }
  return std::max<size_t>(1, std::min(threads, work_items));
}

}  // namespace expfinder
