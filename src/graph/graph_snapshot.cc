#include "src/graph/graph_snapshot.h"

#include "src/index/topic_index.h"

namespace expfinder {

std::shared_ptr<const GraphSnapshot> GraphSnapshot::Capture(const Graph& g) {
  // Seal before copying, so the chunks this capture pays for are counted;
  // the copy then finds every page sealed.
  const size_t chunks_built = g.Seal();
  // std::make_shared needs a public constructor; new keeps it private.
  return std::shared_ptr<const GraphSnapshot>(new GraphSnapshot(g, chunks_built));
}

const KhopIndex* GraphSnapshot::BallIndex(Distance depth,
                                          const BallIndexOptions& limits,
                                          ThreadPool* pool, size_t workers,
                                          bool* built_now) const {
  if (built_now != nullptr) *built_now = false;
  if (!limits.enabled || depth == 0 || depth == kUnreachable ||
      depth > limits.max_depth) {
    return nullptr;
  }
  // Fast path: a deep-enough index is already published — no lock, no use
  // counting (uses only matter before the build happens).
  if (const KhopIndex* published = published_ball_.load(std::memory_order_acquire);
      published != nullptr && published->depth() >= depth) {
    return published;
  }
  std::lock_guard<std::mutex> lock(ball_mu_);
  if (!ball_limits_set_) {
    ball_limits_ = limits;
    ball_limits_set_ = true;
  } else if (!(ball_limits_ == limits)) {
    // The slot is shared by every reader of this version; first limits win.
    // A caller under different caps falls back to BFS (identical relation)
    // instead of evicting an index other readers are scanning.
    return nullptr;
  }
  ++ball_uses_;
  if (ball_index_ != nullptr && ball_index_->depth() >= depth) {
    return ball_index_.get();
  }
  if (ball_failed_depth_ != 0 && depth >= ball_failed_depth_) return nullptr;
  // Deferred build: only pay the O(n) construction once this snapshot has
  // shown reuse — one-shot readers and write-heavy version churn stay on
  // the BFS paths for free.
  if (ball_uses_ < limits.build_after_uses) return nullptr;
  auto built = KhopIndex::Build(csr_, depth, limits, pool, workers);
  if (built == nullptr) {
    // Keep any existing shallower index — it is still exact — and remember
    // that `depth` does not fit the budget.
    ball_failed_depth_ = depth;
    return nullptr;
  }
  if (ball_index_ != nullptr) {
    // A reader may hold the shallower index across this swap; retire it so
    // it lives as long as the snapshot does.
    retired_balls_.push_back(std::move(ball_index_));
  }
  ball_index_ = std::move(built);
  published_ball_.store(ball_index_.get(), std::memory_order_release);
  if (built_now != nullptr) *built_now = true;
  return ball_index_.get();
}

const TopicIndex* GraphSnapshot::TopicIndexFor(const TopicIndexOptions& limits,
                                               bool* built_now) const {
  const std::shared_ptr<TopicIndexSlot>& slot = graph_.topic_slot();
  if (slot == nullptr) {
    // Only an empty graph has no slot — nothing to index.
    if (built_now != nullptr) *built_now = false;
    return nullptr;
  }
  return slot->Get(graph_, limits, built_now);
}

const TopicIndex* GraphSnapshot::CachedTopicIndex() const {
  const std::shared_ptr<TopicIndexSlot>& slot = graph_.topic_slot();
  return slot != nullptr ? slot->Cached() : nullptr;
}

}  // namespace expfinder
