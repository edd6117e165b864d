// Dynamic maintenance of compressed graphs (paper §II: "Gc is incrementally
// maintained in response to changes to G"; §III: maintenance "outperforms
// the method that recomputes compressed graphs, even when large batch
// updates are incurred").
//
// Strategy: signature refinement is restarted *from the current partition*
// after updates. Splits re-stabilize the partition in a handful of passes
// (vs. the full refinement depth from the schema partition). Deletions can
// make the coarsest partition coarser than ours — the partition stays a
// valid bisimulation (query preservation holds; tests verify), only the
// compression ratio degrades — so a full rebuild is triggered when the
// block count drifts beyond a configurable factor.

#ifndef EXPFINDER_COMPRESSION_MAINTENANCE_H_
#define EXPFINDER_COMPRESSION_MAINTENANCE_H_

#include "src/compression/compressed_graph.h"
#include "src/incremental/update.h"
#include "src/util/result.h"

namespace expfinder {

/// \brief Keeps a CompressedGraph in sync with its source graph.
class MaintainedCompression {
 public:
  /// Builds the initial compressed graph (bisimulation mode — the only mode
  /// that is maintainable by pure refinement).
  static Result<MaintainedCompression> Create(const Graph* g, CompressionSchema schema,
                                              double rebuild_factor = 1.5);

  const CompressedGraph& current() const { return cg_; }

  /// Re-stabilizes after the source graph has been mutated by `batch`
  /// (localized: only blocks reachable backwards from touched edge sources
  /// are re-split). Returns the number of blocks created (0 = already
  /// stable). Triggers a full rebuild when blocks drift past
  /// rebuild_factor x the last full build.
  size_t OnGraphUpdated(const UpdateBatch& batch);

  /// Unconditional recompression from the schema partition.
  void Rebuild();

  /// Extends the partition after the source graph grew by one (edge-less)
  /// node: the newcomer gets a singleton class (sound — possibly finer than
  /// the coarsest partition until the next Rebuild).
  void OnNodeAdded(NodeId v);

  size_t num_maintenances() const { return num_maintenances_; }
  size_t num_rebuilds() const { return num_rebuilds_; }

 private:
  MaintainedCompression(const Graph* g, CompressionSchema schema, double rebuild_factor)
      : g_(g), schema_(std::move(schema)), rebuild_factor_(rebuild_factor) {}

  const Graph* g_;
  CompressionSchema schema_;
  double rebuild_factor_;
  CompressedGraph cg_;
  uint32_t blocks_at_last_rebuild_ = 0;
  size_t num_maintenances_ = 0;
  size_t num_rebuilds_ = 0;
};

}  // namespace expfinder

#endif  // EXPFINDER_COMPRESSION_MAINTENANCE_H_
