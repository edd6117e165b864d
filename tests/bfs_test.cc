#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include "src/generator/generators.h"
#include "src/graph/bfs.h"
#include "src/graph/csr.h"
#include "src/graph/graph_snapshot.h"
#include "src/graph/shortest_paths.h"

namespace expfinder {
namespace {

// Path: 0 -> 1 -> 2 -> 3, plus a back edge 3 -> 0 (cycle of length 4).
Graph Ring4() {
  Graph g;
  for (int i = 0; i < 4; ++i) g.AddNode("N");
  EXPECT_TRUE(g.AddEdge(0, 1).ok());
  EXPECT_TRUE(g.AddEdge(1, 2).ok());
  EXPECT_TRUE(g.AddEdge(2, 3).ok());
  EXPECT_TRUE(g.AddEdge(3, 0).ok());
  return g;
}

TEST(SingleSourceDistancesTest, LinearChain) {
  Graph g;
  for (int i = 0; i < 5; ++i) g.AddNode("N");
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(g.AddEdge(i, i + 1).ok());
  auto dist = SingleSourceDistances(g, 0);
  EXPECT_EQ(dist, (std::vector<Distance>{0, 1, 2, 3, 4}));
  auto capped = SingleSourceDistances(g, 0, 2);
  EXPECT_EQ(capped, (std::vector<Distance>{0, 1, 2, kUnreachable, kUnreachable}));
}

TEST(SingleTargetDistancesTest, ReverseOfForward) {
  Graph g = Ring4();
  auto to3 = SingleTargetDistances(g, 3);
  EXPECT_EQ(to3[3], 0u);
  EXPECT_EQ(to3[0], 3u);
  EXPECT_EQ(to3[2], 1u);
}

TEST(ReachableTest, Basics) {
  Graph g;
  g.AddNode("A");
  g.AddNode("B");
  g.AddNode("C");
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  EXPECT_TRUE(Reachable(g, 0, 1));
  EXPECT_TRUE(Reachable(g, 0, 0));  // empty path
  EXPECT_FALSE(Reachable(g, 1, 0));
  EXPECT_FALSE(Reachable(g, 0, 2));
  EXPECT_FALSE(Reachable(g, 0, 99));
}

TEST(BoundedBfsNonEmptyTest, SelfReachableOnlyThroughCycle) {
  Graph g = Ring4();
  BfsBuffers buf;
  buf.EnsureSize(g.NumNodes());
  std::map<NodeId, Distance> visited;
  BoundedBfsNonEmpty<true>(g, 0, 10, &buf,
                           [&](NodeId w, Distance d) { visited[w] = d; });
  // Nonempty shortest distances from 0: 1->1, 2->2, 3->3, 0->4 (the cycle).
  EXPECT_EQ(visited[1], 1u);
  EXPECT_EQ(visited[2], 2u);
  EXPECT_EQ(visited[3], 3u);
  EXPECT_EQ(visited[0], 4u);
}

TEST(BoundedBfsNonEmptyTest, DepthCapRespected) {
  Graph g = Ring4();
  BfsBuffers buf;
  buf.EnsureSize(g.NumNodes());
  std::map<NodeId, Distance> visited;
  BoundedBfsNonEmpty<true>(g, 0, 2, &buf, [&](NodeId w, Distance d) { visited[w] = d; });
  EXPECT_EQ(visited.size(), 2u);
  EXPECT_EQ(visited.at(1), 1u);
  EXPECT_EQ(visited.at(2), 2u);
}

TEST(BoundedBfsNonEmptyTest, ZeroDepthVisitsNothing) {
  Graph g = Ring4();
  BfsBuffers buf;
  buf.EnsureSize(g.NumNodes());
  int count = 0;
  BoundedBfsNonEmpty<true>(g, 0, 0, &buf, [&](NodeId, Distance) { ++count; });
  EXPECT_EQ(count, 0);
}

TEST(BoundedBfsNonEmptyTest, ReverseDirection) {
  Graph g;
  for (int i = 0; i < 3; ++i) g.AddNode("N");
  ASSERT_TRUE(g.AddEdge(0, 2).ok());
  ASSERT_TRUE(g.AddEdge(1, 2).ok());
  BfsBuffers buf;
  buf.EnsureSize(g.NumNodes());
  std::map<NodeId, Distance> visited;
  BoundedBfsNonEmpty<false>(g, 2, 3, &buf, [&](NodeId w, Distance d) { visited[w] = d; });
  EXPECT_EQ(visited.size(), 2u);
  EXPECT_EQ(visited.at(0), 1u);
  EXPECT_EQ(visited.at(1), 1u);
}

TEST(BoundedBfsNonEmptyTest, BuffersReusableAcrossCalls) {
  Graph g = Ring4();
  BfsBuffers buf;
  buf.EnsureSize(g.NumNodes());
  for (int round = 0; round < 3; ++round) {
    std::map<NodeId, Distance> visited;
    BoundedBfsNonEmpty<true>(g, 1, 4, &buf, [&](NodeId w, Distance d) { visited[w] = d; });
    EXPECT_EQ(visited.size(), 4u) << "round " << round;
    EXPECT_EQ(visited.at(1), 4u);
  }
}

TEST(BoundedBfsNonEmptyTest, WorksOnCsr) {
  Graph g = Ring4();
  auto snap = g.Publish();
  const Csr& csr = snap->csr();
  BfsBuffers buf;
  buf.EnsureSize(g.NumNodes());
  std::map<NodeId, Distance> visited;
  BoundedBfsNonEmpty<true>(csr, 0, 4, &buf, [&](NodeId w, Distance d) { visited[w] = d; });
  EXPECT_EQ(visited.size(), 4u);
  EXPECT_EQ(visited.at(0), 4u);
}

TEST(DijkstraTest, MatchesBfsOnUnitWeights) {
  Graph g = gen::ErdosRenyi(60, 240, 11);
  WeightedAdjacency adj(g.NumNodes());
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    for (NodeId w : g.OutNeighbors(v)) adj[v].emplace_back(w, 1.0);
  }
  auto bfs = SingleSourceDistances(g, 0);
  auto dij = DijkstraFrom(adj, 0);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    if (bfs[v] == kUnreachable) {
      EXPECT_TRUE(std::isinf(dij[v])) << v;
    } else {
      EXPECT_DOUBLE_EQ(dij[v], static_cast<double>(bfs[v])) << v;
    }
  }
}

TEST(DijkstraTest, PrefersLighterLongerPath) {
  // 0 -> 1 (10), 0 -> 2 (1), 2 -> 1 (2): best 0->1 is 3 via 2.
  WeightedAdjacency adj(3);
  adj[0] = {{1, 10.0}, {2, 1.0}};
  adj[2] = {{1, 2.0}};
  auto dist = DijkstraFrom(adj, 0);
  EXPECT_DOUBLE_EQ(dist[1], 3.0);
  EXPECT_DOUBLE_EQ(dist[2], 1.0);
  EXPECT_DOUBLE_EQ(dist[0], 0.0);
}

TEST(DistanceMatrixTest, MatchesPairwiseBfs) {
  Graph g = gen::ErdosRenyi(40, 120, 13);
  DistanceMatrix dm(g, 5);
  BfsBuffers buf;
  buf.EnsureSize(g.NumNodes());
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    std::vector<Distance> row(g.NumNodes(), kUnreachable);
    BoundedBfsNonEmpty<true>(g, u, 5, &buf, [&](NodeId w, Distance d) { row[w] = d; });
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      EXPECT_EQ(dm.At(u, v), row[v]) << u << "->" << v;
    }
  }
}

class BfsRandomSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BfsRandomSweep, NonEmptyDistancesAgreeWithPlainBfsOffSource) {
  Graph g = gen::ErdosRenyi(80, 320, GetParam());
  BfsBuffers buf;
  buf.EnsureSize(g.NumNodes());
  for (NodeId src = 0; src < 10; ++src) {
    auto plain = SingleSourceDistances(g, src);
    std::vector<Distance> nonempty(g.NumNodes(), kUnreachable);
    BoundedBfsNonEmpty<true>(g, src, kUnreachable - 1, &buf,
                             [&](NodeId w, Distance d) { nonempty[w] = d; });
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      if (v == src) continue;  // plain has 0 (empty path); nonempty may differ
      EXPECT_EQ(nonempty[v], plain[v]) << src << "->" << v;
    }
  }
}

/// The (w, d) pairs a bounded BFS visits, in visit order.
template <bool Forward, typename GraphLike>
std::vector<std::pair<NodeId, Distance>> Visits(const GraphLike& g, NodeId src,
                                                Distance depth, BfsBuffers* buf) {
  std::vector<std::pair<NodeId, Distance>> out;
  BoundedBfsNonEmpty<Forward>(g, src, depth, buf,
                              [&](NodeId w, Distance d) { out.emplace_back(w, d); });
  return out;
}

/// Depth 1 lists the adjacency directly; a depth-2 traversal takes the
/// general path, whose distance-1 visits come first. Both must agree, order
/// included, with self-loops present, over Graph and Csr in both directions.
template <bool Forward, typename GraphLike>
void ExpectDepthOneMatchesGeneralPath(const GraphLike& g, size_t n, BfsBuffers* buf) {
  for (NodeId src = 0; src < n; ++src) {
    auto general = Visits<Forward>(g, src, 2, buf);
    general.erase(std::remove_if(general.begin(), general.end(),
                                 [](const auto& p) { return p.second != 1; }),
                  general.end());
    EXPECT_EQ(Visits<Forward>(g, src, 1, buf), general)
        << (Forward ? "forward" : "backward") << " from " << src;
  }
}

TEST_P(BfsRandomSweep, DepthOneVisitsEqualGeneralPathInOrder) {
  Graph g = gen::ErdosRenyi(80, 320, GetParam());
  for (NodeId v = 0; v < g.NumNodes(); v += 5) ASSERT_TRUE(g.AddEdge(v, v).ok());
  BfsBuffers buf;
  buf.EnsureSize(g.NumNodes());
  ExpectDepthOneMatchesGeneralPath<true>(g, g.NumNodes(), &buf);
  ExpectDepthOneMatchesGeneralPath<false>(g, g.NumNodes(), &buf);
  auto snap = g.Publish();
  ExpectDepthOneMatchesGeneralPath<true>(snap->csr(), g.NumNodes(), &buf);
  ExpectDepthOneMatchesGeneralPath<false>(snap->csr(), g.NumNodes(), &buf);
  // A self-loop puts the source among its own depth-1 visits.
  auto self = Visits<true>(g, 0, 1, &buf);
  EXPECT_NE(std::find(self.begin(), self.end(), std::make_pair(NodeId{0}, Distance{1})),
            self.end());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BfsRandomSweep, ::testing::Values(3, 17, 99));

}  // namespace
}  // namespace expfinder
