#include "src/compression/maintenance.h"

#include "src/util/logging.h"

namespace expfinder {

Result<MaintainedCompression> MaintainedCompression::Create(const Graph* g,
                                                            CompressionSchema schema,
                                                            double rebuild_factor) {
  if (rebuild_factor < 1.0) {
    return Status::InvalidArgument("rebuild_factor must be >= 1.0");
  }
  MaintainedCompression mc(g, std::move(schema), rebuild_factor);
  auto built = CompressedGraph::Build(*g, mc.schema_, EquivalenceMode::kBisimulation);
  if (!built.ok()) return built.status();
  mc.cg_ = std::move(built).value();
  mc.blocks_at_last_rebuild_ = mc.cg_.NumClasses();
  return mc;
}

size_t MaintainedCompression::OnGraphUpdated(const UpdateBatch& batch) {
  ++num_maintenances_;
  // Note: only edge updates are supported; attribute/label changes would
  // invalidate the schema partition and require Rebuild().
  EF_CHECK(g_->NumNodes() == cg_.partition().block_of.size())
      << "node set changed; call Rebuild()";
  // Only the *source* endpoint of a touched edge changes its (forward)
  // signature; everything else is reached by the backward split propagation.
  std::vector<NodeId> dirty;
  dirty.reserve(batch.size());
  for (const GraphUpdate& u : batch) dirty.push_back(u.src);
  Partition p = cg_.partition();
  size_t new_blocks = RefineFrom(*g_, &p, dirty);
  if (p.num_blocks >
      static_cast<uint32_t>(rebuild_factor_ * blocks_at_last_rebuild_)) {
    Rebuild();
    return new_blocks;
  }
  cg_.RebuildFromPartition(*g_, std::move(p));
  return new_blocks;
}

void MaintainedCompression::OnNodeAdded(NodeId v) {
  EF_CHECK(g_->IsValidNode(v) && v == cg_.partition().block_of.size())
      << "OnNodeAdded must follow Graph::AddNode immediately";
  Partition p = cg_.partition();
  p.block_of.push_back(p.num_blocks++);
  cg_.RebuildFromPartition(*g_, std::move(p));
}

void MaintainedCompression::Rebuild() {
  ++num_rebuilds_;
  auto built = CompressedGraph::Build(*g_, schema_, EquivalenceMode::kBisimulation);
  EF_CHECK(built.ok()) << built.status();
  cg_ = std::move(built).value();
  blocks_at_last_rebuild_ = cg_.NumClasses();
}

}  // namespace expfinder
