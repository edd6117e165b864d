// Ranked lists memoized on one cached answer. The paper's engine "directly
// returns M(Q,G) if it is already cached" and gives users "the best K
// experts" (§II); ranking the same result graph again on every cache hit
// would repeat the costliest step of a warm read. A RankedListMemo lives in
// a QueryAnswer (engine/result_cache.h) and remembers, per ranking, the
// longest best-first prefix ranked so far, so a later request for any k it
// covers copies that prefix instead of ranking.
//
// A top-k list is the k-prefix of every longer top-K list of the same
// ranking: TopKMatchesWith and TopKTopicFusion score each match
// independently of k and break ties by node id, so their orders are total.

#ifndef EXPFINDER_RANKING_RANKED_LIST_MEMO_H_
#define EXPFINDER_RANKING_RANKED_LIST_MEMO_H_

#include <cstddef>
#include <mutex>
#include <string>
#include <vector>

#include "src/query/pattern.h"
#include "src/ranking/metrics.h"
#include "src/ranking/social_impact.h"

namespace expfinder {

/// \brief What one ranking of an answer depends on besides the answer:
/// the output node, the metric and, for kTopicFusion only, the query's
/// topic tokens.
struct RankedListKey {
  PatternNodeId output = 0;
  RankingMetric metric = RankingMetric::kSocialImpact;
  /// kTopicFusion: the sorted unique topic tokens of the query's terms,
  /// space-joined (tokens are alphanumeric runs, so the join is
  /// unambiguous). Empty for every other metric, which ignores the terms.
  std::string tokens;

  bool operator==(const RankedListKey&) const = default;
};

/// The key of ranking the matches of `output` under `metric` for a query
/// with free-text `terms`.
RankedListKey MakeRankedListKey(PatternNodeId output, RankingMetric metric,
                                const std::vector<std::string>& terms);

/// \brief Thread-safe memo of the ranked lists of one answer.
///
/// Each entry holds the list ranked with the largest k so far, and that k:
/// a list shorter than its k is the complete order. Lookups copy under the
/// memo's mutex; ranking on a miss happens in the caller, outside it. A
/// copy or move of the memo starts empty: it belongs to the answer object
/// it lives in, and is freed with that answer.
class RankedListMemo {
 public:
  RankedListMemo() = default;
  RankedListMemo(const RankedListMemo&) {}
  RankedListMemo(RankedListMemo&&) noexcept {}
  RankedListMemo& operator=(const RankedListMemo&) = delete;
  RankedListMemo& operator=(RankedListMemo&&) = delete;

  /// When the entry under `key` covers `k` (it is at least k long, or
  /// complete), copies its first min(k, length) matches into `*out` and
  /// returns true; otherwise returns false and leaves `*out` alone.
  bool Find(const RankedListKey& key, size_t k, std::vector<RankedMatch>* out) const;

  /// Records `ranked`, the top-k list under `key`, when k is larger than
  /// the k of the entry it would replace (0 when there is none).
  void Store(const RankedListKey& key, size_t k, const std::vector<RankedMatch>& ranked);

 private:
  struct Entry {
    RankedListKey key;
    size_t k = 0;
    std::vector<RankedMatch> ranked;
  };

  mutable std::mutex mu_;
  std::vector<Entry> entries_;  // guarded by mu_; a handful per answer
};

}  // namespace expfinder

#endif  // EXPFINDER_RANKING_RANKED_LIST_MEMO_H_
