#include "src/engine/result_cache.h"

namespace expfinder {

ResultCache::Iter ResultCache::Covering(uint64_t fingerprint, uint64_t version) {
  auto [begin, end] = by_fingerprint_.equal_range(fingerprint);
  for (auto it = begin; it != end; ++it) {
    if (it->second->first <= version && version <= it->second->last) return it->second;
  }
  return lru_.end();
}

std::shared_ptr<const QueryAnswer> ResultCache::Get(uint64_t fingerprint,
                                                    uint64_t graph_version) {
  if (capacity_ == 0) return nullptr;  // disabled: no lookup
  const Iter it = Covering(fingerprint, graph_version);
  if (it == lru_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it);  // refresh recency
  return it->answer;
}

void ResultCache::Put(uint64_t fingerprint, uint64_t graph_version,
                      std::shared_ptr<const QueryAnswer> answer,
                      std::shared_ptr<const Pattern> pattern) {
  if (capacity_ == 0) return;
  if (const Iter it = Covering(fingerprint, graph_version); it != lru_.end()) {
    it->answer = std::move(answer);
    it->pattern = std::move(pattern);
    lru_.splice(lru_.begin(), lru_, it);
    return;
  }
  lru_.push_front(
      {fingerprint, graph_version, graph_version, std::move(pattern), std::move(answer)});
  by_fingerprint_.emplace(fingerprint, lru_.begin());
  while (lru_.size() > capacity_) {
    const Iter victim = std::prev(lru_.end());
    auto [begin, end] = by_fingerprint_.equal_range(victim->fingerprint);
    for (auto it = begin; it != end; ++it) {
      if (it->second == victim) {
        by_fingerprint_.erase(it);
        break;
      }
    }
    lru_.pop_back();
  }
}

std::vector<ResultCache::Tail> ResultCache::EntriesEndingAt(uint64_t version) const {
  std::vector<Tail> tails;
  for (const Entry& e : lru_) {
    if (e.last == version && e.pattern != nullptr) tails.push_back({e.fingerprint, e.pattern});
  }
  return tails;
}

bool ResultCache::Extend(uint64_t fingerprint, uint64_t from, uint64_t to) {
  const Iter it = Covering(fingerprint, from);
  if (it == lru_.end() || it->last != from) return false;
  it->last = to;
  return true;
}

void ResultCache::Clear() {
  lru_.clear();
  by_fingerprint_.clear();
}

}  // namespace expfinder
