// Unit tests for the flat bitset, the fork-join pool and the match context
// introduced by the hot-path overhaul.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "src/matching/match_context.h"
#include "src/util/dense_bitset.h"
#include "src/util/thread_pool.h"

namespace expfinder {
namespace {

TEST(DenseBitsetTest, SetTestResetAcrossWordBoundaries) {
  DenseBitset b(3, 200);
  EXPECT_EQ(b.NumRows(), 3u);
  EXPECT_EQ(b.NumCols(), 200u);
  for (size_t c : {0u, 1u, 63u, 64u, 65u, 127u, 128u, 199u}) {
    EXPECT_FALSE(b.Test(1, c));
    b.Set(1, c);
    EXPECT_TRUE(b.Test(1, c));
    EXPECT_FALSE(b.Test(0, c)) << "row bleed at " << c;
    EXPECT_FALSE(b.Test(2, c)) << "row bleed at " << c;
  }
  EXPECT_EQ(b.CountRow(1), 8u);
  EXPECT_EQ(b.CountRow(0), 0u);
  EXPECT_EQ(b.Count(), 8u);
  b.Reset(1, 64);
  EXPECT_FALSE(b.Test(1, 64));
  EXPECT_EQ(b.CountRow(1), 7u);
}

TEST(DenseBitsetTest, RowProxyAndForEachAscending) {
  DenseBitset b(2, 150);
  std::vector<size_t> expect{3, 64, 77, 149};
  for (size_t c : expect) b.Set(1, c);
  auto row = b.Row(1);
  EXPECT_TRUE(row[64]);
  EXPECT_FALSE(row[65]);
  std::vector<size_t> seen;
  b.ForEachInRow(1, [&](size_t c) { seen.push_back(c); });
  EXPECT_EQ(seen, expect);
  EXPECT_TRUE(b.AnyInRow(1));
  EXPECT_FALSE(b.AnyInRow(0));
}

TEST(DenseBitsetTest, EqualityAndCopy) {
  DenseBitset a(2, 70), b(2, 70);
  EXPECT_EQ(a, b);
  a.Set(0, 69);
  EXPECT_NE(a, b);
  b.Set(0, 69);
  EXPECT_EQ(a, b);
  DenseBitset c = a;  // deep copy
  c.Reset(0, 69);
  EXPECT_TRUE(a.Test(0, 69));
}

TEST(DenseBitsetTest, ClearAllKeepsShape) {
  DenseBitset b(2, 100);
  b.Set(0, 99);
  b.Set(1, 0);
  b.ClearAll();
  EXPECT_EQ(b.Count(), 0u);
  EXPECT_EQ(b.NumRows(), 2u);
  EXPECT_EQ(b.NumCols(), 100u);
}

TEST(DenseBitsetTest, AddColumnPreservesContentAcrossRelayout) {
  // 64 -> 65 columns crosses a word boundary and forces a re-layout.
  DenseBitset b(3, 64);
  b.Set(0, 0);
  b.Set(1, 63);
  b.Set(2, 31);
  b.AddColumn();
  EXPECT_EQ(b.NumCols(), 65u);
  EXPECT_TRUE(b.Test(0, 0));
  EXPECT_TRUE(b.Test(1, 63));
  EXPECT_TRUE(b.Test(2, 31));
  EXPECT_FALSE(b.Test(0, 64));
  b.Set(1, 64);
  EXPECT_TRUE(b.Test(1, 64));
  EXPECT_EQ(b.Count(), 4u);
  // Non-relayout growth.
  b.AddColumn();
  EXPECT_EQ(b.NumCols(), 66u);
  EXPECT_EQ(b.Count(), 4u);
}

TEST(ThreadPoolTest, CoversRangeExactlyOnce) {
  for (size_t workers : {1u, 2u, 4u, 7u}) {
    ThreadPool pool(workers);
    EXPECT_EQ(pool.num_workers(), workers);
    const size_t n = 1013;
    std::vector<std::atomic<int>> hits(n);
    pool.ParallelChunks(n, [&](size_t, size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
    });
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "i=" << i << " workers=" << workers;
    }
  }
}

TEST(ThreadPoolTest, ChunksAreContiguousAndInWorkerOrder) {
  ThreadPool pool(4);
  const size_t n = 103;
  std::vector<std::pair<size_t, size_t>> bounds(4, {0, 0});
  pool.ParallelChunks(n, [&](size_t worker, size_t begin, size_t end) {
    bounds[worker] = {begin, end};
  });
  size_t expect_begin = 0;
  for (size_t w = 0; w < 4; ++w) {
    EXPECT_EQ(bounds[w].first, expect_begin);
    EXPECT_LE(bounds[w].first, bounds[w].second);
    expect_begin = bounds[w].second;
  }
  EXPECT_EQ(expect_begin, n);
}

TEST(ThreadPoolTest, ReusableAcrossDispatchesAndEmptyInput) {
  ThreadPool pool(3);
  std::atomic<size_t> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.ParallelChunks(10, [&](size_t, size_t begin, size_t end) {
      total.fetch_add(end - begin);
    });
  }
  EXPECT_EQ(total.load(), 500u);
  pool.ParallelChunks(0, [&](size_t, size_t, size_t) { FAIL(); });
}

TEST(ThreadPoolTest, ActiveWorkersSubsetOfPool) {
  // A wide pool serves narrower dispatches without respawning: only the
  // first `active` workers get chunks, and the partition depends on
  // (n, active) alone.
  ThreadPool pool(6);
  const size_t n = 97;
  for (size_t active : {1u, 2u, 5u, 6u, 9u /* clamped to 6 */}) {
    std::vector<std::atomic<int>> hits(n);
    std::atomic<size_t> workers_used{0};
    pool.ParallelChunks(n, active, [&](size_t worker, size_t begin, size_t end) {
      workers_used.fetch_add(1);
      EXPECT_LT(worker, std::min<size_t>(active, 6));
      for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
    });
    for (size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << "active=" << active;
    EXPECT_LE(workers_used.load(), std::min<size_t>(active, 6));
  }
}

TEST(ThreadPoolTest, ResolveThreads) {
  EXPECT_EQ(ThreadPool::ResolveThreads(3), 3u);
  EXPECT_EQ(ThreadPool::ResolveThreads(1), 1u);
  EXPECT_GE(ThreadPool::ResolveThreads(0), 1u);
}

TEST(MatchContextTest, SeedWorkersPolicy) {
  MatchContext ctx;
  // 1 always forces serial.
  EXPECT_EQ(ctx.SeedWorkers(1, 1 << 20), 1u);
  // Explicit counts are honoured (capped by work).
  EXPECT_EQ(ctx.SeedWorkers(4, 1 << 20), 4u);
  EXPECT_EQ(ctx.SeedWorkers(4, 2), 2u);
  // Auto mode never parallelizes tiny inputs.
  EXPECT_EQ(ctx.SeedWorkers(0, 16), 1u);
  EXPECT_GE(ctx.SeedWorkers(0, 1 << 20), 1u);
  EXPECT_EQ(ctx.SeedWorkers(7, 0), 1u);
}

}  // namespace
}  // namespace expfinder
