#include "src/incremental/update.h"

#include <unordered_map>
#include <unordered_set>

#include "src/util/logging.h"
#include "src/util/random.h"

namespace expfinder {

std::string GraphUpdate::ToString() const {
  std::string out = kind == Kind::kInsertEdge ? "+(" : "-(";
  out += std::to_string(src);
  out += ",";
  out += std::to_string(dst);
  out += ")";
  return out;
}

Status ApplyUpdate(Graph* g, const GraphUpdate& u) {
  switch (u.kind) {
    case GraphUpdate::Kind::kInsertEdge:
      return g->AddEdge(u.src, u.dst);
    case GraphUpdate::Kind::kDeleteEdge:
      return g->RemoveEdge(u.src, u.dst);
  }
  return Status::Internal("unknown update kind");
}

Status ApplyBatch(Graph* g, const UpdateBatch& batch) {
  for (const GraphUpdate& u : batch) {
    EF_RETURN_NOT_OK(ApplyUpdate(g, u));
  }
  return Status::OK();
}

Status ValidateBatch(const Graph& g, const UpdateBatch& batch) {
  auto key = [](NodeId a, NodeId b) { return (static_cast<uint64_t>(a) << 32) | b; };
  std::unordered_map<uint64_t, bool> touched;  // pair -> present after prefix
  touched.reserve(batch.size() * 2);
  for (size_t i = 0; i < batch.size(); ++i) {
    const GraphUpdate& u = batch[i];
    if (!g.IsValidNode(u.src) || !g.IsValidNode(u.dst)) {
      return Status::InvalidArgument("update " + std::to_string(i) +
                                     ": endpoint out of range");
    }
    uint64_t k = key(u.src, u.dst);
    auto it = touched.find(k);
    bool present = it != touched.end() ? it->second : g.HasEdge(u.src, u.dst);
    if (u.kind == GraphUpdate::Kind::kInsertEdge) {
      if (present) {
        return Status::AlreadyExists("update " + std::to_string(i) +
                                     ": edge already present " + u.ToString());
      }
      touched[k] = true;
    } else {
      if (!present) {
        return Status::NotFound("update " + std::to_string(i) + ": edge absent " +
                                u.ToString());
      }
      touched[k] = false;
    }
  }
  return Status::OK();
}

UpdateBatch GenerateUpdateStream(const Graph& g, size_t count, double insert_fraction,
                                 uint64_t seed) {
  EF_CHECK(g.NumNodes() >= 2) << "update stream needs >= 2 nodes";
  Rng rng(seed);
  // Simulated edge set so each update is valid when applied in order.
  auto key = [](NodeId a, NodeId b) { return (static_cast<uint64_t>(a) << 32) | b; };
  std::unordered_set<uint64_t> edges;
  std::vector<std::pair<NodeId, NodeId>> edge_list;
  edges.reserve(g.NumEdges() * 2);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    for (NodeId w : g.OutNeighbors(v)) {
      edges.insert(key(v, w));
      edge_list.emplace_back(v, w);
    }
  }
  UpdateBatch batch;
  batch.reserve(count);
  const size_t n = g.NumNodes();
  while (batch.size() < count) {
    bool do_insert = rng.NextBool(insert_fraction) || edge_list.empty();
    if (do_insert) {
      // Rejection-sample a currently absent pair without re-rolling the
      // insert/delete choice (which would bias the requested mix).
      NodeId a = 0, b = 0;
      bool found = false;
      for (int tries = 0; tries < 10000 && !found; ++tries) {
        a = static_cast<NodeId>(rng.NextBounded(n));
        b = static_cast<NodeId>(rng.NextBounded(n));
        found = a != b && !edges.count(key(a, b));
      }
      EF_CHECK(found) << "graph too dense to sample new edges";
      edges.insert(key(a, b));
      edge_list.emplace_back(a, b);
      batch.push_back(GraphUpdate::Insert(a, b));
    } else {
      size_t idx = rng.NextBounded(edge_list.size());
      auto [a, b] = edge_list[idx];
      edges.erase(key(a, b));
      edge_list[idx] = edge_list.back();
      edge_list.pop_back();
      batch.push_back(GraphUpdate::Delete(a, b));
    }
  }
  return batch;
}

}  // namespace expfinder
