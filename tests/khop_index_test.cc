#include "src/graph/khop_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/generator/generators.h"
#include "src/graph/bfs.h"
#include "src/graph/csr.h"
#include "src/graph/graph_snapshot.h"
#include "src/util/thread_pool.h"

namespace expfinder {
namespace {

/// Reference balls straight from BoundedBfsNonEmpty: per depth-stratum, the
/// nodes in visit order — exactly what the index stores.
std::vector<std::vector<NodeId>> ReferenceBall(const Csr& csr, NodeId src, Distance depth) {
  BfsBuffers buf;
  buf.EnsureSize(csr.NumNodes());
  std::vector<std::vector<NodeId>> strata(depth);
  BoundedBfsNonEmpty<true>(csr, src, depth, &buf,
                           [&](NodeId w, Distance d) { strata[d - 1].push_back(w); });
  return strata;
}

void ExpectIndexMatchesBfs(const KhopIndex& index, const Csr& csr) {
  const Distance depth = index.depth();
  for (NodeId v = 0; v < csr.NumNodes(); ++v) {
    auto fwd = ReferenceBall(csr, v, depth);
    ASSERT_TRUE(index.HasOut(v)) << "unexpected overflow, node " << v;
    size_t fwd_total = 0;
    for (Distance d = 1; d <= depth; ++d) {
      auto out_stratum = index.StratumOut(v, d);
      ASSERT_EQ(std::vector<NodeId>(out_stratum.begin(), out_stratum.end()), fwd[d - 1])
          << "fwd stratum mismatch: v=" << v << " d=" << d;
      fwd_total += fwd[d - 1].size();
      ASSERT_EQ(index.BallOut(v, d).size(), fwd_total);
    }
  }
}

TEST(KhopIndexTest, BallsEqualBfsOnRandomGraphs) {
  for (uint64_t seed : {1u, 7u, 23u}) {
    Graph g = gen::ErdosRenyi(120, 400, seed);
    auto snap = g.Publish();
  const Csr& csr = snap->csr();
    for (Distance depth : {1u, 2u, 3u}) {
      auto index = KhopIndex::Build(csr, depth, {});
      ASSERT_NE(index, nullptr);
      ExpectIndexMatchesBfs(*index, csr);
    }
  }
}

TEST(KhopIndexTest, DepthClampAndPrefixProperty) {
  Graph g = gen::ErdosRenyi(60, 200, 5);
  auto snap = g.Publish();
  const Csr& csr = snap->csr();
  auto index = KhopIndex::Build(csr, 3, {});
  ASSERT_NE(index, nullptr);
  for (NodeId v = 0; v < csr.NumNodes(); ++v) {
    // Requesting beyond depth() clamps.
    EXPECT_EQ(index->BallOut(v, 9).data(), index->BallOut(v, 3).data());
    EXPECT_EQ(index->BallOut(v, 9).size(), index->BallOut(v, 3).size());
    // A shallower ball is a strict prefix of the deeper one.
    auto b2 = index->BallOut(v, 2);
    auto b3 = index->BallOut(v, 3);
    ASSERT_LE(b2.size(), b3.size());
    EXPECT_TRUE(std::equal(b2.begin(), b2.end(), b3.begin()));
  }
}

TEST(KhopIndexTest, ParallelBuildBitIdenticalToSerial) {
  Graph g = gen::ErdosRenyi(300, 1500, 11);
  auto snap = g.Publish();
  const Csr& csr = snap->csr();
  auto serial = KhopIndex::Build(csr, 2, {});
  ASSERT_NE(serial, nullptr);
  ThreadPool pool(4);
  auto parallel = KhopIndex::Build(csr, 2, {}, &pool, 4);
  ASSERT_NE(parallel, nullptr);
  ASSERT_EQ(serial->TotalEntries(), parallel->TotalEntries());
  for (NodeId v = 0; v < csr.NumNodes(); ++v) {
    for (Distance d = 1; d <= 2; ++d) {
      auto s = serial->BallOut(v, d);
      auto p = parallel->BallOut(v, d);
      ASSERT_TRUE(std::equal(s.begin(), s.end(), p.begin(), p.end())) << v;
    }
  }
}

TEST(KhopIndexTest, DenseHubOverflowsPerNodeCapOthersStayIndexed) {
  // A star: the hub reaches everyone in one hop, spokes reach only hub +
  // (at depth 2) each other... build with a cap the hub must blow.
  const size_t n = 64;
  Graph g;
  for (size_t i = 0; i < n; ++i) g.AddNode("P");
  for (NodeId v = 1; v < n; ++v) {
    ASSERT_TRUE(g.AddEdge(0, v).ok());
    ASSERT_TRUE(g.AddEdge(v, 0).ok());
  }
  auto snap = g.Publish();
  const Csr& csr = snap->csr();
  BallIndexOptions limits;
  limits.max_ball_nodes = 8;  // hub ball is n-1 = 63 at depth 1
  auto index = KhopIndex::Build(csr, 2, limits);
  ASSERT_NE(index, nullptr);
  EXPECT_FALSE(index->HasOut(0));
  EXPECT_GE(index->OverflowedBalls(), 2u);
  // Spokes at depth 2 see hub + all other spokes = 63 nodes > cap too.
  EXPECT_FALSE(index->HasOut(1));
  // But at a cap that fits the spokes' balls (1 node) yet not the hub's
  // (63), only the hub overflows.
  limits.max_ball_nodes = 62;
  auto wide = KhopIndex::Build(csr, 1, limits);
  ASSERT_NE(wide, nullptr);
  EXPECT_TRUE(wide->HasOut(1));
  EXPECT_FALSE(wide->HasOut(0));
  auto ball = wide->BallOut(1, 1);
  ASSERT_EQ(ball.size(), 1u);
  EXPECT_EQ(ball[0], 0u);
}

TEST(KhopIndexTest, TotalBudgetFailsBuild) {
  Graph g = gen::ErdosRenyi(100, 500, 3);
  auto snap = g.Publish();
  const Csr& csr = snap->csr();
  BallIndexOptions limits;
  limits.max_total_entries = 16;
  EXPECT_EQ(KhopIndex::Build(csr, 2, limits), nullptr);
  limits.max_total_entries = size_t{1} << 25;
  EXPECT_NE(KhopIndex::Build(csr, 2, limits), nullptr);
}

}  // namespace
}  // namespace expfinder
