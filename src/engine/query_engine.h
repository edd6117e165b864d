// The ExpFinder query engine's writer half (paper §II, Fig. 2): it owns the
// mutable state queries are answered from — the live graph, the
// incremental computation module (maintained queries) and the graph
// compression module — and freezes it into immutable EngineSnapshots:
//
//   Publish():     freeze (page-sharing graph copy + CSR table, current
//                  compressed view, materialized maintained relations)
//                  into a refcounted EngineSnapshot. Lazy: republishes
//                  only when a mutation happened since the last publish,
//                  and reuses the graph / compressed handles that didn't
//                  change.
//   ApplyUpdates:  routes batches through every registered incremental
//                  state, then re-stabilizes the compressed graph. The next
//                  Publish() carries the transition to readers — maintainer
//                  PreUpdate/PostUpdate are the first half of the publish
//                  step (ExpFinderService::Mutate completes it by swapping
//                  its epoch pointer to the fresh snapshot).
//
// The engine answers no queries. ExpFinderService is the only reader: it
// owns the result cache and the stateless EvalCore (eval_core.h) and
// serves every request from a published snapshot — cache, maintained
// relation, then EvalCore's planner / compressed / direct chain.

#ifndef EXPFINDER_ENGINE_QUERY_ENGINE_H_
#define EXPFINDER_ENGINE_QUERY_ENGINE_H_

#include <memory>
#include <unordered_map>

#include "src/compression/maintenance.h"
#include "src/engine/eval_core.h"
#include "src/incremental/inc_bounded.h"

namespace expfinder {

/// \brief Stateful writer over the graph, incremental maintenance and
/// compression; publishes immutable EngineSnapshots for the lock-free
/// serving path. Single-threaded: the service serializes every call behind
/// its writer lock.
class QueryEngine {
 public:
  /// `g` must outlive the engine; the engine mutates it in ApplyUpdates.
  explicit QueryEngine(Graph* g, EngineOptions options = {});

  /// The current published snapshot, republishing first when any mutation
  /// happened since the last publish. Cheap when current (two integer
  /// compares); a republish costs one CSR chunk per page mutated since the
  /// last publish (the graph copy shares the live graph's pages, see
  /// graph.h) plus the materialization of maintained relations and the
  /// compressed view.
  /// Handles unchanged by the mutation (e.g. the graph after
  /// RegisterMaintainedQuery) are reused, not recaptured. Readers consume
  /// the returned handle, never the engine.
  std::shared_ptr<const EngineSnapshot> Publish();

  /// Adds a person to the network (no edges yet; connect via ApplyUpdates).
  /// Maintained queries and the compressed graph are extended in place.
  Result<NodeId> AddNode(std::string_view label,
                         const std::vector<std::pair<std::string, AttrValue>>& attrs = {});

  /// Applies a batch of edge updates, maintaining every registered query
  /// and the compressed graph. The batch is validated first (ValidateBatch,
  /// update.h); on validation failure nothing changes.
  Status ApplyUpdates(const UpdateBatch& batch);

  /// Registers Q as a frequently issued query maintained incrementally
  /// ("decided by the users", §II), under the chosen semantics, by an
  /// IncrementalBoundedSimulation (which serves simulation, bounded and
  /// dual patterns alike). Its relation is published in every later
  /// snapshot (EngineSnapshot::Maintained, keyed by QueryCacheKey).
  Status RegisterMaintainedQuery(
      const Pattern& q, MatchSemantics semantics = MatchSemantics::kBoundedSimulation);
  bool IsMaintained(const Pattern& q,
                    MatchSemantics semantics = MatchSemantics::kBoundedSimulation) const;

  /// Builds the compressed graph now (no-op if current). Exposed so callers
  /// can choose the compression moment, mirroring the GUI's "Graph
  /// Compressor" tool.
  Status CompressNow();
  /// The compressed graph, or nullptr when not built.
  const CompressedGraph* compressed() const;

 private:
  /// Marks published state stale; the next Publish() builds a successor.
  void BumpEngineSeq() { ++engine_seq_; }

  Graph* g_;
  EngineOptions options_;
  std::unique_ptr<MaintainedCompression> compression_;
  /// Maintained queries by QueryCacheKey, each maintained under the
  /// semantics it was registered with (one maintainer class serves all).
  std::unordered_map<uint64_t, IncrementalBoundedSimulation> maintained_;
  /// The current published snapshot (null until the first Publish).
  std::shared_ptr<const EngineSnapshot> published_;
  /// Bumped by every mutation; published_->engine_seq trails it exactly
  /// when a republish is owed.
  uint64_t engine_seq_ = 0;
};

}  // namespace expfinder

#endif  // EXPFINDER_ENGINE_QUERY_ENGINE_H_
