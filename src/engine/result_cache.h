// LRU cache of query answers ("the query engine directly returns M(Q,G) if
// it is already cached", paper §II). The graph version is folded into the
// cache key itself (ISSUE 6): an entry is the answer to (pattern
// fingerprint, graph version), so a lookup either finds the answer computed
// at exactly the requested version or misses — there is no staleness check
// to scatter at call sites, and a read pinned to an old snapshot
// (`as_of_version`) can never be served a newer relation. Entries for
// superseded versions are not proactively dropped; they keep serving pinned
// reads until LRU pressure evicts them.
//
// An answer also carries the ranked lists served from it (RankedListMemo,
// ranking/ranked_list_memo.h): each (output node, metric, topic tokens)
// ranking is computed once per cached answer, and a later hit copies its
// prefix. The lists are freed with their answer when LRU evicts it.

#ifndef EXPFINDER_ENGINE_RESULT_CACHE_H_
#define EXPFINDER_ENGINE_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>

#include "src/matching/match_relation.h"
#include "src/matching/result_graph.h"
#include "src/ranking/ranked_list_memo.h"

namespace expfinder {

/// \brief A cached evaluation: the match relation plus its result graph,
/// both immutable once built, and the ranked lists served from them so far.
/// `QueryAnswer{matches, result_graph}` starts with an empty memo, as does a
/// copy.
struct QueryAnswer {
  MatchRelation matches;
  ResultGraph result_graph;
  /// Top-k lists ranked over `result_graph` (see RankedListMemo). Mutable:
  /// answers are shared as `shared_ptr<const QueryAnswer>`, and the memo
  /// is the one part that grows, under its own mutex.
  mutable RankedListMemo ranked_lists{};
};

/// \brief LRU map (fingerprint, graph version) -> QueryAnswer.
///
/// `capacity == 0` means *disabled*: Get always misses and Put is a no-op,
/// with no map lookups and no hit/miss bookkeeping — the counters stay 0, so
/// a disabled cache is indistinguishable from one that was never consulted.
class ResultCache {
 public:
  explicit ResultCache(size_t capacity) : capacity_(capacity) {}

  /// Fetches the answer computed at exactly (fingerprint, graph_version);
  /// refreshes recency. Entries at other versions neither match nor are
  /// disturbed.
  std::shared_ptr<const QueryAnswer> Get(uint64_t fingerprint, uint64_t graph_version);

  /// Inserts/overwrites the (fingerprint, graph_version) entry; evicts
  /// least-recently-used beyond capacity.
  void Put(uint64_t fingerprint, uint64_t graph_version,
           std::shared_ptr<const QueryAnswer> answer);

  void Clear();
  size_t size() const { return map_.size(); }
  size_t capacity() const { return capacity_; }

  size_t hits() const { return hits_; }
  size_t misses() const { return misses_; }

 private:
  struct Entry {
    uint64_t fingerprint;
    uint64_t graph_version;
    std::shared_ptr<const QueryAnswer> answer;
  };

  /// The combined map key. Mixes version into the fingerprint
  /// (splitmix64-style) — entries verify the full (fingerprint, version)
  /// pair on lookup, so a 64-bit mix collision degrades to a miss, never a
  /// wrong answer.
  static uint64_t Key(uint64_t fingerprint, uint64_t graph_version);

  size_t capacity_;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<uint64_t, std::list<Entry>::iterator> map_;
  size_t hits_ = 0, misses_ = 0;
};

}  // namespace expfinder

#endif  // EXPFINDER_ENGINE_RESULT_CACHE_H_
