// Topic inverted index: attribute/label tokens -> posting lists of node ids.
//
// Opens the "find experts about X" workload: candidate seeding for text
// predicates (string equality, has_token) walks a posting list instead of
// scanning the graph, and free-text query terms compile into pattern
// predicates over it. Tokenization is AppendTopicTokens (string_util.h) —
// lowercased maximal alphanumeric runs — and every topic-layer component
// must tokenize exactly that way for the index to stay a sound pre-filter.
//
// Soundness contract: a node's *token set* is the union of the tokens of its
// label name and of every string attribute value. For a condition C that a
// node v satisfies,
//   - `a == "s"` / `* == "s"`       =>  TopicTokens(s) ⊆ tokens(v)
//   - `a has_token "s"` / `* ...`   =>  TopicTokens(s) ⊆ tokens(v)
// so the intersection of the query tokens' posting lists is a superset of
// the satisfying nodes, and any single posting list (the min-df one) is a
// sound candidate universe. kContains gets nothing here: substrings cross
// token boundaries ("ackend" matches "backend" but is no token of it).
// Seeding re-verifies every candidate exactly, so relations are bit-identical
// with the index on, off, or capped — the index only changes who gets probed.
//
// Ownership mirrors the k-hop ball slot (graph/khop_index.h): a
// TopicIndexSlot hangs off Graph as a shared_ptr that content mutations
// replace, so snapshots published across pure edge churn share one built
// index while divergent content can never serve stale postings. The slot
// also holds the content version's int attribute columns (attr_columns.h).

#ifndef EXPFINDER_INDEX_TOPIC_INDEX_H_
#define EXPFINDER_INDEX_TOPIC_INDEX_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/graph/attribute.h"
#include "src/graph/types.h"
#include "src/index/attr_columns.h"
#include "src/query/pattern.h"
#include "src/util/logging.h"

namespace expfinder {

class Graph;

/// Build/participation policy for the topic index. Like BallIndexOptions,
/// the first limits presented to a slot win; later calls with different
/// limits fall back to scans rather than rebuilding.
struct TopicIndexOptions {
  /// Master switch: disabled means seeding never consults or builds the
  /// index (relations are identical either way).
  bool enabled = true;
  /// Deferred build: the slot counts text-predicate uses and builds only
  /// when a snapshot's graph has been asked this many times — one-shot
  /// queries never pay the build. 0/1 builds on first use.
  size_t build_after_uses = 8;
  /// Refuse to build when the index would exceed this many (term, node)
  /// postings; the refusal is memoized and seeding scans instead.
  size_t max_total_postings = size_t{1} << 24;

  bool operator==(const TopicIndexOptions& o) const {
    return enabled == o.enabled && build_after_uses == o.build_after_uses &&
           max_total_postings == o.max_total_postings;
  }
};

/// \brief Immutable inverted index over one graph's content. Postings are
/// per-term delta-compressed varints (ascending node ids). Built once, then
/// read concurrently without synchronization.
class TopicIndex {
 public:
  /// Builds the index over `g`'s labels + string attributes. Returns nullptr
  /// when disabled or when total postings would exceed the budget.
  static std::unique_ptr<TopicIndex> Build(const Graph& g,
                                           const TopicIndexOptions& limits);

  /// Term id of `token` (already normalized), if indexed.
  std::optional<uint32_t> FindTerm(std::string_view token) const {
    return terms_.Find(token);
  }
  /// Number of nodes whose token set contains the term.
  size_t DocFreq(uint32_t term) const { return df_[term]; }
  const std::string& TermName(uint32_t term) const { return terms_.NameOf(term); }

  /// Decodes the posting list of `term` in ascending node-id order.
  template <typename Fn>
  void ForEachPosting(uint32_t term, Fn&& fn) const {
    const uint8_t* p = blob_.data() + off_[term];
    const uint8_t* end = blob_.data() + off_[term + 1];
    NodeId v = 0;
    bool first = true;
    while (p < end) {
      uint32_t delta = 0;
      int shift = 0;
      while (true) {
        const uint8_t b = *p++;
        delta |= static_cast<uint32_t>(b & 0x7f) << shift;
        if ((b & 0x80) == 0) break;
        shift += 7;
      }
      v = first ? delta : v + delta;
      first = false;
      fn(v);
    }
  }
  void AppendPostings(uint32_t term, std::vector<NodeId>* out) const {
    ForEachPosting(term, [out](NodeId v) { out->push_back(v); });
  }

  size_t NumTerms() const { return terms_.size(); }
  size_t NumNodes() const { return num_nodes_; }
  size_t TotalPostings() const { return total_postings_; }
  /// Encoded posting bytes (telemetry: postings compress well below the
  /// 4 bytes/id of plain lists).
  size_t PostingBytes() const { return blob_.size(); }

 private:
  TopicIndex() = default;

  StringInterner terms_;
  std::vector<uint32_t> df_;        // per-term document frequency
  std::vector<uint8_t> blob_;       // varint delta-encoded postings
  std::vector<uint64_t> off_;       // per-term byte offsets into blob_
  size_t num_nodes_ = 0;
  size_t total_postings_ = 0;
};

/// \brief Lazy shared build slot for what derives from one graph content
/// version: the topic index, with the exact policy of GraphSnapshot's ball
/// slot (first limits win, deferred build after `build_after_uses` uses,
/// over-budget builds memoized as failed), and the int attribute columns,
/// built on first use with no policy. Graph owns one per content version;
/// every snapshot/copy sharing the slot provably has identical labels +
/// attributes (content mutations replace the slot), so the slot needs no
/// key of its own. Thread-safe.
class TopicIndexSlot {
 public:
  /// Returns the built index, building it if this call crosses the deferred
  /// threshold (sets *built_now). Returns nullptr while deferred, when
  /// disabled, or when over budget. The first limits presented govern the
  /// build: before it happens, callers under different limits get nullptr
  /// (and don't age the use counter); once built, every enabled caller
  /// shares the index — its content doesn't depend on the limits, so there
  /// is nothing to rebuild.
  const TopicIndex* Get(const Graph& g, const TopicIndexOptions& limits,
                        bool* built_now) const;

  /// The built index if one exists, else nullptr. Never builds.
  const TopicIndex* Cached() const {
    return published_.load(std::memory_order_acquire);
  }

  /// The int attribute columns of `g`, building them on the first call.
  /// `g` must be a graph sharing this slot. Lock-free once built.
  const IntColumns* IntColumnsFor(const Graph& g) const;

  /// True once any enabled Get() has touched the slot's state (use counting,
  /// a build, or a memoized refusal), or IntColumnsFor has run. An untouched
  /// slot holds nothing derived from graph content, so a sole owner may keep
  /// it across content mutations (see Graph::InvalidateTopicSlot) instead of
  /// replacing it.
  bool Consumed() const { return touched_.load(std::memory_order_acquire); }

 private:
  mutable std::mutex mu_;
  mutable std::atomic<const TopicIndex*> published_{nullptr};
  mutable std::unique_ptr<TopicIndex> index_;
  mutable TopicIndexOptions limits_;
  mutable bool limits_set_ = false;
  mutable bool failed_ = false;
  mutable size_t uses_ = 0;
  mutable std::atomic<bool> touched_{false};  // see Consumed()
  mutable std::unique_ptr<IntColumns> columns_;  // guarded by mu_
  mutable std::atomic<const IntColumns*> published_columns_{nullptr};
};

/// True when some pattern node carries a predicate the topic index can
/// pre-filter: kEq or kHasToken against a string constant with >= 1 token
/// (on a named attribute or any-attribute "*").
bool HasTextPredicates(const Pattern& q);

/// Compiles free-text expertise terms into a copy of `q` whose output node
/// additionally requires `* has_token "<token>"` for every normalized token
/// of `terms` (conjunctive, sorted, deduplicated). The compiled pattern is
/// an ordinary pattern: it evaluates, caches, and rounds-trips through
/// ToText like any other, with or without the index. Terms that normalize
/// to nothing are dropped; a pattern without an output node is returned
/// unchanged.
Pattern CompileTopicTerms(const Pattern& q, const std::vector<std::string>& terms);

}  // namespace expfinder

#endif  // EXPFINDER_INDEX_TOPIC_INDEX_H_
