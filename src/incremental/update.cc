#include "src/incremental/update.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "src/graph/bfs.h"
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

namespace {

/// (node, hop distance) pairs in BFS order: the source at 0, then the nodes
/// at 1, 2, ... up to the depth asked for.
using Neighbourhood = std::vector<std::pair<NodeId, Distance>>;

template <bool Forward>
Neighbourhood CollectNeighbourhood(const Graph& g, NodeId src, Distance depth,
                                   BfsBuffers* buf) {
  Neighbourhood hood{{src, 0}};
  BoundedBfsNonEmpty<Forward>(g, src, depth, buf, [&](NodeId w, Distance d) {
    if (w != src) hood.emplace_back(w, d);  // a cycle back to src is no nearer
  });
  return hood;
}

/// The distance of the first node of `hood` satisfying `u`, or kUnreachable
/// when none lies within `limit`. BFS order makes the first hit the nearest.
Distance Nearest(const Graph& g, const Neighbourhood& hood, const PatternNode& u,
                 Distance limit) {
  for (const auto& [w, d] : hood) {
    if (d > limit) break;
    if (u.Matches(g, w)) return d;
  }
  return kUnreachable;
}

}  // namespace

std::vector<bool> BatchMayChange(const Graph& before, const Graph& after,
                                 const UpdateBatch& batch,
                                 const std::vector<const Pattern*>& patterns) {
  std::vector<bool> may_change(patterns.size(), false);
  Distance depth = 0;  // D: the largest finite bound
  for (size_t i = 0; i < patterns.size(); ++i) {
    const Distance bound = patterns[i]->MaxBound();
    if (bound == kUnboundedEdge) {
      may_change[i] = true;  // reachability: no finite area bounds the effect
    } else {
      depth = std::max(depth, bound);
    }
  }
  if (depth == 0 || batch.empty()) return may_change;  // edge-less patterns only
  BfsBuffers buf;
  buf.EnsureSize(std::max(before.NumNodes(), after.NumNodes()));
  struct Area {
    const Graph* g;      // after for an insert, before for a delete
    Neighbourhood back;  // of the updated edge's source, against edge direction
    Neighbourhood fwd;   // of its target
  };
  std::vector<Area> areas;
  areas.reserve(batch.size());
  for (const GraphUpdate& u : batch) {
    const Graph& g = u.kind == GraphUpdate::Kind::kInsertEdge ? after : before;
    areas.push_back({&g, CollectNeighbourhood<false>(g, u.src, depth - 1, &buf),
                     CollectNeighbourhood<true>(g, u.dst, depth - 1, &buf)});
  }
  for (size_t i = 0; i < patterns.size(); ++i) {
    const Pattern& q = *patterns[i];
    for (size_t a = 0; a < areas.size() && !may_change[i]; ++a) {
      const Area& area = areas[a];
      for (const PatternEdge& e : q.edges()) {
        const Distance d1 = Nearest(*area.g, area.back, q.node(e.src), e.bound - 1);
        if (d1 != kUnreachable &&
            Nearest(*area.g, area.fwd, q.node(e.dst), e.bound - 1 - d1) != kUnreachable) {
          may_change[i] = true;
          break;
        }
      }
    }
  }
  return may_change;
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
