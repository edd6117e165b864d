#include "src/ranking/ranked_list_memo.h"

#include <algorithm>

#include "src/util/string_util.h"

namespace expfinder {

RankedListKey MakeRankedListKey(PatternNodeId output, RankingMetric metric,
                                const std::vector<std::string>& terms) {
  RankedListKey key{output, metric, {}};
  if (metric != RankingMetric::kTopicFusion) return key;
  for (const std::string& token : SortedTopicTokens(terms)) {
    if (!key.tokens.empty()) key.tokens += ' ';
    key.tokens += token;
  }
  return key;
}

bool RankedListMemo::Find(const RankedListKey& key, size_t k,
                          std::vector<RankedMatch>* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Entry& e : entries_) {
    if (!(e.key == key)) continue;
    const bool complete = e.ranked.size() < e.k;
    if (e.ranked.size() < k && !complete) return false;
    out->assign(e.ranked.begin(), e.ranked.begin() + std::min(k, e.ranked.size()));
    return true;
  }
  return false;
}

void RankedListMemo::Store(const RankedListKey& key, size_t k,
                           const std::vector<RankedMatch>& ranked) {
  // Copy outside the lock; the swap below hands the replaced list to
  // `copy`, which frees it after the lock is released.
  std::vector<RankedMatch> copy = ranked;
  std::lock_guard<std::mutex> lock(mu_);
  for (Entry& e : entries_) {
    if (!(e.key == key)) continue;
    if (k > e.k) {
      e.k = k;
      e.ranked.swap(copy);
    }
    return;
  }
  if (k > 0) entries_.push_back(Entry{key, k, std::move(copy)});
}

}  // namespace expfinder
