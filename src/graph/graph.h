// The attributed, directed data-graph type at the heart of ExpFinder.
//
// A Graph models a social / collaboration network: every node carries a
// label (its "field", e.g. system architect) plus typed attributes
// (name, specialty, years of experience, ...). Edges are unlabelled and
// unweighted; an edge (u, v) means "v collaborated in a project with/under
// u" and paths model indirect collaboration (paper §I).
//
// The structure is fully dynamic: edges can be inserted and removed at any
// time (the incremental module depends on this), and a monotonically
// increasing version() supports cache invalidation.
//
// Copies are cheap. The per-node heap data (out-lists, in-lists, attribute
// lists) lives in fixed pages of 64 nodes held through shared_ptr, so a copy
// shares every page and costs one pointer copy per page; only the small flat
// parts (labels, label index, interners, counters) are copied outright.
// Copying seals the pages it shares, and a writer clones a sealed page before
// its first write to it, so a mutation costs one page clone per page it
// touches and never changes what another copy (e.g. a published snapshot)
// sees. A sealed page is never written again by anyone: readers may scan it
// lock-free for as long as they hold a copy.
//
// Sealing an adjacency page also gives it its flat read form, a CSR chunk
// (csr.h): the page's offsets and neighbours in one allocation, built once
// and shared by every copy that shares the page — primary and replica graphs
// and every snapshot alike. A snapshot's Csr is a table of its pages' chunks,
// so a publish builds chunks only for the pages its batch touched.

#ifndef EXPFINDER_GRAPH_GRAPH_H_
#define EXPFINDER_GRAPH_GRAPH_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/graph/attribute.h"
#include "src/graph/types.h"
#include "src/util/status.h"

namespace expfinder {

class GraphSnapshot;
class TopicIndexSlot;

/// \brief Attributed directed graph with dynamic edge updates.
class Graph {
 public:
  Graph() = default;

  // --- Construction -------------------------------------------------------

  /// Adds a node with the given label; returns its id (dense, sequential).
  NodeId AddNode(std::string_view label);

  /// Adds a directed edge. Fails with InvalidArgument when an endpoint is
  /// out of range, AlreadyExists when the edge is already present.
  Status AddEdge(NodeId src, NodeId dst);

  /// Adds an edge without the duplicate check (for bulk generators that
  /// guarantee uniqueness themselves). Endpoints must be valid.
  void AddEdgeUnchecked(NodeId src, NodeId dst);

  /// Removes a directed edge. Fails with NotFound when absent.
  Status RemoveEdge(NodeId src, NodeId dst);

  bool HasEdge(NodeId src, NodeId dst) const;

  // --- Topology -----------------------------------------------------------

  size_t NumNodes() const { return labels_.size(); }
  size_t NumEdges() const { return num_edges_; }
  bool IsValidNode(NodeId v) const { return v < labels_.size(); }

  const std::vector<NodeId>& OutNeighbors(NodeId v) const { return out_[v]; }
  const std::vector<NodeId>& InNeighbors(NodeId v) const { return in_[v]; }
  size_t OutDegree(NodeId v) const { return out_[v].size(); }
  size_t InDegree(NodeId v) const { return in_[v].size(); }

  // --- Labels -------------------------------------------------------------

  LabelId label(NodeId v) const { return labels_[v]; }
  const std::string& LabelName(LabelId id) const { return label_interner_.NameOf(id); }
  const std::string& NodeLabelName(NodeId v) const { return LabelName(labels_[v]); }
  /// Id of `name` if any node uses it.
  std::optional<LabelId> FindLabel(std::string_view name) const {
    return label_interner_.Find(name);
  }
  size_t NumLabels() const { return label_interner_.size(); }
  /// All nodes with the given label (the candidate index used by planners).
  /// Invariant: ascending node ids — AddNode appends monotonically
  /// increasing ids and entries are never reordered. Candidate
  /// initialization relies on this to skip re-sorting.
  const std::vector<NodeId>& NodesWithLabel(LabelId id) const;

  // --- Attributes ---------------------------------------------------------

  /// Sets (or overwrites) attribute `key` on node `v`.
  void SetAttr(NodeId v, std::string_view key, AttrValue value);

  /// Attribute by interned key id; nullptr when the node lacks it.
  const AttrValue* GetAttr(NodeId v, AttrKeyId key) const;
  /// Attribute by name; nullptr when unknown key or the node lacks it.
  const AttrValue* GetAttr(NodeId v, std::string_view key) const;

  std::optional<AttrKeyId> FindAttrKey(std::string_view key) const {
    return attr_interner_.Find(key);
  }
  AttrKeyId InternAttrKey(std::string_view key) { return attr_interner_.Intern(key); }
  const std::string& AttrKeyName(AttrKeyId id) const { return attr_interner_.NameOf(id); }
  size_t NumAttrKeys() const { return attr_interner_.size(); }

  /// All (key, value) pairs on `v`, in insertion order.
  const std::vector<std::pair<AttrKeyId, AttrValue>>& Attrs(NodeId v) const {
    return attrs_[v];
  }

  /// Convenience: node "name" attribute or "v<id>" placeholder.
  std::string DisplayName(NodeId v) const;

  // --- Versioning ---------------------------------------------------------

  /// Bumped on every mutation (node/edge/attr change); used by caches.
  uint64_t version() const { return version_; }

  /// Recovery/replication only: restores the version counter of a graph
  /// rebuilt from a serialized form (the text format does not persist the
  /// counter — a parsed graph counts its own construction mutations).
  /// Checkpoint recovery calls this so version numbering stays continuous
  /// across restarts, and replicas bootstrapped from a checkpoint agree
  /// with the primary on what every version number means. Later mutations
  /// bump from the restored value. Never call this on a graph that has
  /// published snapshots or live caches keyed on its counter.
  void RestoreVersion(uint64_t version) { version_ = version; }

  /// Publishes the current state as an immutable GraphSnapshot (see
  /// graph_snapshot.h): a refcounted handle bundling a frozen copy of this
  /// graph, its CSR, and a lazily attached ball index. The copy shares this
  /// graph's pages and seals them, so later mutations clone each page they
  /// touch instead of writing it — mutating on after Publish never disturbs
  /// readers holding the handle.
  std::shared_ptr<const GraphSnapshot> Publish() const;

  /// Nodes per page (see the file comment); a Csr indexes chunks by
  /// v >> kPageShift.
  static constexpr size_t kPageShift = 6;
  static constexpr size_t kPageNodes = size_t{1} << kPageShift;  // 64
  static constexpr size_t kPageMask = kPageNodes - 1;

  /// Process-unique construction identity. Every default-constructed Graph
  /// draws a fresh uid; copies/moves carry their source's uid. Snapshot
  /// caches key on (address, uid, version): the version counter alone is
  /// ambiguous for a Graph destroyed and re-constructed at the same address
  /// (e.g. the compressed graph rebuilt in place), because the counter
  /// restarts and can land on the same value — the fresh uid disambiguates.
  uint64_t uid() const { return uid_; }

  /// The lazily built topic inverted index shared by every graph with this
  /// graph's *content* (labels + attributes; see index/topic_index.h).
  /// Copies — including the frozen copies inside snapshots — share the slot,
  /// so an index built against one published snapshot serves every snapshot
  /// published across pure edge churn. Content mutations (AddNode, SetAttr)
  /// swap in a fresh slot, which also covers copies that diverge after the
  /// share: whoever mutates stops sharing. nullptr until the first content
  /// mutation (an empty graph has nothing to index).
  const std::shared_ptr<TopicIndexSlot>& topic_slot() const { return topic_slot_; }

 private:
  static uint64_t NextUid();

  /// Content mutated: ensure earlier copies (snapshots) stop sharing the
  /// topic slot. A slot nobody else holds and no query has ever touched
  /// carries no derived state, so bulk loads keep one fresh slot instead of
  /// churning an allocation per AddNode/SetAttr.
  void InvalidateTopicSlot();

  friend class Csr;
  friend class GraphSnapshot;

  using Adjacency = std::vector<NodeId>;

  /// The CSR chunk of one adjacency page (layout in csr.h), in one
  /// allocation. Checks that the page's neighbour count fits a NodeId.
  static NodeId* BuildCsrChunk(const std::array<Adjacency, kPageNodes>& slots);

  /// Seals every page, building the CSR chunk of each adjacency page sealed
  /// now. Returns the number of chunks this call built.
  size_t Seal() const;

  /// The chunks of adjacency page `page` (which must be sealed).
  const NodeId* OutChunk(size_t page) const { return out_.Chunk(page); }
  const NodeId* InChunk(size_t page) const { return in_.Chunk(page); }
  size_t NumPages() const { return out_.NumPages(); }

  /// One Slot per node, stored in fixed pages of kPageNodes. Copies share
  /// the pages and seal them; Mutable() clones a sealed page before handing
  /// out a writable slot. The seal is the only thing that licenses an
  /// in-place write: an unsealed page was created by this object's writer
  /// and has never been shared. (use_count() == 1 would not do: a lock-free
  /// reader's last reads of a page are not ordered before a relaxed count
  /// load, so the write could race them.) A sealed adjacency page also
  /// carries its CSR chunk, installed by the first seal and never changed.
  template <typename Slot>
  class PagedSlots {
   public:
    PagedSlots() = default;
    PagedSlots(const PagedSlots& other) : pages_(other.pages_) { Seal(); }
    PagedSlots& operator=(const PagedSlots& other) {
      if (this != &other) {
        pages_ = other.pages_;
        Seal();
      }
      return *this;
    }
    PagedSlots(PagedSlots&&) noexcept = default;
    PagedSlots& operator=(PagedSlots&&) noexcept = default;

    const Slot& operator[](NodeId v) const {
      return pages_[v >> kPageShift]->slots[v & kPageMask];
    }

    /// Writable slot of `v`, cloning its page first if a copy shares it.
    Slot& Mutable(NodeId v) {
      std::shared_ptr<Page>& page = pages_[v >> kPageShift];
      if (page->sealed.load(std::memory_order_acquire)) {
        page = std::make_shared<Page>(page->slots);
      }
      return page->slots[v & kPageMask];
    }

    /// Makes room for node `v`, the next id: a fresh page at a page
    /// boundary, otherwise nothing (the slot of an unused id is empty, and
    /// copies sharing a partly filled page never read past their own
    /// NumNodes()).
    void Append(NodeId v) {
      if ((v & kPageMask) == 0) pages_.push_back(std::make_shared<Page>());
    }

    /// Seals every page; for adjacency slots, builds the chunk of each page
    /// that has none yet. Returns the number of chunks built. Concurrent
    /// seals of one page (copies of one unmutated graph on several threads)
    /// are safe: each may build, the first to install wins.
    size_t Seal() const {
      size_t built = 0;
      for (const std::shared_ptr<Page>& page : pages_) {
        // Skip the stores when already sealed: readers scanning the page's
        // slots on other cores keep their cache line clean.
        if (page->sealed.load(std::memory_order_acquire)) continue;
        if constexpr (std::is_same_v<Slot, Adjacency>) {
          if (page->chunk.load(std::memory_order_acquire) == nullptr) {
            NodeId* chunk = BuildCsrChunk(page->slots);
            NodeId* expected = nullptr;
            if (page->chunk.compare_exchange_strong(expected, chunk,
                                                    std::memory_order_acq_rel)) {
              ++built;
            } else {
              delete[] chunk;
            }
          }
        }
        page->sealed.store(true, std::memory_order_release);
      }
      return built;
    }

    /// The chunk of sealed adjacency page `page`.
    const NodeId* Chunk(size_t page) const {
      return pages_[page]->chunk.load(std::memory_order_acquire);
    }
    size_t NumPages() const { return pages_.size(); }

   private:
    struct Page {
      Page() = default;
      explicit Page(const std::array<Slot, kPageNodes>& from) : slots(from) {}
      Page(const Page&) = delete;
      Page& operator=(const Page&) = delete;
      ~Page() { delete[] chunk.load(std::memory_order_relaxed); }
      std::array<Slot, kPageNodes> slots;
      /// Set by the first copy that shares the page; never cleared.
      std::atomic<bool> sealed{false};
      /// Adjacency pages only: the CSR chunk, installed before `sealed` is
      /// set and owned by the page. Null on attribute pages.
      std::atomic<NodeId*> chunk{nullptr};
    };

    std::vector<std::shared_ptr<Page>> pages_;
  };

  StringInterner label_interner_;
  StringInterner attr_interner_;
  std::vector<LabelId> labels_;                      // per node
  PagedSlots<Adjacency> out_;                        // adjacency
  PagedSlots<Adjacency> in_;                         // reverse adjacency
  PagedSlots<std::vector<std::pair<AttrKeyId, AttrValue>>> attrs_;  // per node
  std::vector<std::vector<NodeId>> label_index_;     // label id -> nodes
  std::shared_ptr<TopicIndexSlot> topic_slot_;       // see topic_slot()
  size_t num_edges_ = 0;
  uint64_t version_ = 0;
  uint64_t uid_ = NextUid();
};

}  // namespace expfinder

#endif  // EXPFINDER_GRAPH_GRAPH_H_
