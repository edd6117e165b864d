// LRU cache of query answers ("the query engine directly returns M(Q,G) if
// it is already cached", paper §II). An entry is the answer to a pattern
// fingerprint over a range of graph versions [first, last]: a lookup at
// version v hits an entry of its fingerprint whose range covers v, or
// misses. Put starts a range at the version the answer was computed at, so
// a read pinned to an old snapshot (`as_of_version`) is never served a
// newer relation.
//
// An edge batch that provably cannot change an answer carries it forward:
// the writer (ExpFinderService::Mutate) lists the entries ending at the
// pre-batch version together with the compiled patterns they answer, runs
// the affected-area test (BatchMayChange, incremental/update.h) outside the
// cache lock, and extends each entry the test clears to the post-batch
// version. Only an entry ending at exactly the pre-batch version is
// extended, so a range never skips a batch. Entries for superseded versions
// are not proactively dropped; they keep serving pinned reads until LRU
// pressure evicts them. Capacity counts answers, not versions.
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
#include <vector>

#include "src/matching/match_relation.h"
#include "src/matching/result_graph.h"
#include "src/query/pattern.h"
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

/// \brief LRU map (fingerprint, version range) -> QueryAnswer.
///
/// `capacity == 0` means *disabled*: Get always misses and Put is a no-op,
/// with no map lookups. (The service counts hits in
/// ServiceStats::cache_hits.)
class ResultCache {
 public:
  explicit ResultCache(size_t capacity) : capacity_(capacity) {}

  /// Fetches the answer of the entry for `fingerprint` whose version range
  /// covers `graph_version`; refreshes its recency. Other entries are
  /// neither matched nor disturbed.
  std::shared_ptr<const QueryAnswer> Get(uint64_t fingerprint, uint64_t graph_version);

  /// Caches `answer`, computed at `graph_version` for the compiled `pattern`,
  /// as the range [graph_version, graph_version], and evicts the
  /// least-recently-used entries beyond capacity. An entry already covering
  /// the version is overwritten instead, keeping its range. A null `pattern`
  /// makes an entry that is never extended.
  void Put(uint64_t fingerprint, uint64_t graph_version,
           std::shared_ptr<const QueryAnswer> answer,
           std::shared_ptr<const Pattern> pattern = nullptr);

  /// An entry whose range ends at a given version, and the pattern it
  /// answers.
  struct Tail {
    uint64_t fingerprint;
    std::shared_ptr<const Pattern> pattern;
  };
  /// The entries with a pattern whose range ends at exactly `version`.
  std::vector<Tail> EntriesEndingAt(uint64_t version) const;

  /// Moves the end of the entry for `fingerprint` ending at `from` to `to`
  /// (> from); recency is left alone. Returns whether such an entry still
  /// existed.
  bool Extend(uint64_t fingerprint, uint64_t from, uint64_t to);

  void Clear();
  size_t size() const { return lru_.size(); }
  size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    uint64_t fingerprint;
    uint64_t first, last;  // the versions the answer holds at, inclusive
    std::shared_ptr<const Pattern> pattern;
    std::shared_ptr<const QueryAnswer> answer;
  };
  using Iter = std::list<Entry>::iterator;

  /// The entry for `fingerprint` whose range contains `version`, or
  /// lru_.end().
  Iter Covering(uint64_t fingerprint, uint64_t version);

  size_t capacity_;
  std::list<Entry> lru_;  // front = most recent
  /// Entries by fingerprint: one per disjoint version range.
  std::unordered_multimap<uint64_t, Iter> by_fingerprint_;
};

}  // namespace expfinder

#endif  // EXPFINDER_ENGINE_RESULT_CACHE_H_
