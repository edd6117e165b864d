#include "src/matching/match_context.h"

#include <algorithm>

#include "src/index/topic_index.h"
#include "src/util/logging.h"

namespace expfinder {

namespace {
/// Below this many seeding units per worker, fan-out overhead beats the win.
constexpr size_t kMinSeedItemsPerWorker = 128;
}  // namespace

const KhopIndex* MatchContext::BallIndexFor(Distance depth,
                                            const BallIndexOptions& limits,
                                            uint32_t num_threads) {
  EF_DCHECK(snapshot_ != nullptr) << "BallIndexFor needs a bound snapshot";
  const size_t workers = SeedWorkers(num_threads, snapshot_->csr().NumNodes());
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

std::vector<std::vector<int32_t>>& MatchContext::Counters(size_t pool_index,
                                                          size_t count, size_t n) {
  auto& pool = counters_[pool_index];
  if (pool.size() < count) pool.resize(count);
  for (size_t i = 0; i < count; ++i) pool[i].assign(n, 0);
  return pool;
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
    // Auto mode: don't spin up workers for tiny candidate lists.
    threads = std::min(threads, std::max<size_t>(1, work_items / kMinSeedItemsPerWorker));
  }
  return std::max<size_t>(1, std::min(threads, work_items));
}

}  // namespace expfinder
