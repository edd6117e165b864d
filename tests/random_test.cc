#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/generator/generators.h"
#include "src/matching/bounded_simulation.h"
#include "src/matching/dual_simulation.h"
#include "src/matching/match_context.h"
#include "src/util/random.h"

namespace expfinder {
namespace {

TEST(RngTest, DeterministicPerSeed) {
  Rng a(123), b(123), c(124);
  bool differs = false;
  for (int i = 0; i < 100; ++i) {
    uint64_t va = a.Next();
    EXPECT_EQ(va, b.Next());
    if (va != c.Next()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (uint64_t bound : {1ULL, 2ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(RngTest, BoundedOneAlwaysZero) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.NextBounded(1), 0u);
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit with overwhelming probability
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(13);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.05);
}

TEST(RngTest, NextBoolRespectsProbability) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.NextBool(0.2);
  EXPECT_NEAR(hits / 10000.0, 0.2, 0.03);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(rng.NextBool(0.0));
}

TEST(RngTest, GaussianMoments) {
  Rng rng(19);
  double sum = 0, sumsq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sumsq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sumsq / n, 1.0, 0.1);
}

TEST(RngTest, ZipfInRangeAndSkewed) {
  Rng rng(23);
  const uint64_t n = 100;
  std::vector<int> counts(n, 0);
  for (int i = 0; i < 20000; ++i) {
    uint64_t v = rng.NextZipf(n, 1.2);
    ASSERT_LT(v, n);
    ++counts[v];
  }
  // Rank 0 must dominate the tail decisively.
  EXPECT_GT(counts[0], counts[50] * 3);
  EXPECT_GT(counts[0], 0);
}

TEST(RngTest, ZipfSingleElement) {
  Rng rng(29);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(rng.NextZipf(1, 1.0), 0u);
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(31);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(&v);
  auto shuffled_sorted = v;
  std::sort(shuffled_sorted.begin(), shuffled_sorted.end());
  EXPECT_EQ(shuffled_sorted, sorted);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(37);
  for (uint64_t k : {0ULL, 1ULL, 5ULL, 50ULL, 100ULL}) {
    auto sample = rng.SampleWithoutReplacement(100, k);
    EXPECT_EQ(sample.size(), k);
    std::set<uint64_t> s(sample.begin(), sample.end());
    EXPECT_EQ(s.size(), k);
    for (uint64_t v : sample) EXPECT_LT(v, 100u);
  }
}

TEST(RngTest, SampleFullPopulation) {
  Rng rng(41);
  auto sample = rng.SampleWithoutReplacement(10, 10);
  std::set<uint64_t> s(sample.begin(), sample.end());
  EXPECT_EQ(s.size(), 10u);
}

class RngSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RngSweep, BoundedUniformity) {
  Rng rng(GetParam());
  const uint64_t bound = 16;
  std::vector<int> counts(bound, 0);
  const int draws = 16000;
  for (int i = 0; i < draws; ++i) ++counts[rng.NextBounded(bound)];
  for (uint64_t b = 0; b < bound; ++b) {
    EXPECT_NEAR(counts[b], draws / static_cast<int>(bound), 250)
        << "bucket " << b << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSweep, ::testing::Values(1, 2, 3, 42, 1234, 99999));

// --- Randomized equivalence: optimized matchers vs. naive oracles ---------
//
// The optimized bounded/dual matchers differ from the references in every
// dimension the hot-path overhauls touched: they walk a snapshot's CSR and
// k-hop ball index, reuse a MatchContext (BFS buffers, counter arrays,
// seeding pool) across calls, store membership in flat bitsets, traverse
// precomputed balls instead of re-running BFS, and fan the seeding phase
// out over a thread pool (which also builds the ball index). This
// sweep pins all of that to the naive dense-distance-matrix fixpoints on
// random graph/pattern pairs, for thread counts {1, 4} crossed with every
// ball-index posture — enabled, disabled, and capped so hard that every
// node overflows into the per-node BFS fallback (plus a budget so small the
// whole build is refused). The acceptance gate: all of them bit-identical.

TEST(RandomEquivalenceTest, OptimizedMatchersMatchNaiveOraclesAcrossThreadCounts) {
  struct BallConfig {
    const char* name;
    BallIndexOptions options;
  };
  // build_after_uses = 1 forces the eager build: each evaluation captures a
  // fresh snapshot, so the default deferred policy would never build at all
  // and the index paths would go untested.
  const BallConfig configs[] = {
      {"ball-on", {.build_after_uses = 1}},
      {"ball-off", {.enabled = false}},
      // Every ball overflows the per-node cap: the index exists but each
      // candidate takes the BFS fallback.
      {"ball-capped-nodes", {.max_ball_nodes = 0, .build_after_uses = 1}},
      // The build itself is refused by the entry budget.
      {"ball-capped-total", {.max_total_entries = 1, .build_after_uses = 1}},
  };
  // One context per (thread count, config), deliberately reused across all
  // iterations so rebinding to a new snapshot every call and counter
  // re-zeroing are exercised, not just the happy first call. Each evaluation
  // captures its own snapshot: a snapshot's ball slot keeps the first limits
  // it sees, so a shared one would serve every later config from BFS.
  MatchContext ctxs[2][4];
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    const size_t n = 20 + (seed * 13) % 90;
    const size_t m = 2 * n + seed % 40;
    Graph g = gen::ErdosRenyi(n, m, seed);
    Pattern q = gen::RandomPattern(3 + seed % 3, 4 + seed % 4,
                                   static_cast<Distance>(1 + seed % 3), 0.3,
                                   seed * 31 + 7);

    MatchRelation naive_bounded = ComputeBoundedSimulationNaive(g, q);
    MatchRelation naive_dual = ComputeDualSimulationNaive(g, q);

    for (uint32_t threads : {1u, 4u}) {
      for (size_t c = 0; c < 4; ++c) {
        MatchOptions opts;
        opts.num_threads = threads;
        opts.ball_index = configs[c].options;
        MatchContext& ctx = ctxs[threads == 1 ? 0 : 1][c];
        EXPECT_TRUE(ComputeBoundedSimulation(GraphSnapshot::Capture(g), q, opts, &ctx) ==
                    naive_bounded)
            << "bounded mismatch: seed=" << seed << " threads=" << threads
            << " config=" << configs[c].name;
        EXPECT_TRUE(ComputeDualSimulation(GraphSnapshot::Capture(g), q, opts, &ctx) ==
                    naive_dual)
            << "dual mismatch: seed=" << seed << " threads=" << threads
            << " config=" << configs[c].name;
      }
    }
  }
}

TEST(RandomEquivalenceTest, ThreadCountsProduceBitIdenticalRelations) {
  // Denser graphs + larger candidate sets than the oracle sweep (no naive
  // recomputation here, so size is cheap): every thread count must yield
  // the exact same relation as the serial pass.
  Graph g = gen::ErdosRenyi(1500, 9000, 99);
  SnapshotPtr snap = g.Publish();
  for (int i = 0; i < 4; ++i) {
    Pattern q = gen::RandomPattern(4, 6, 2, 0.3, 1000 + i);
    MatchOptions serial;
    serial.num_threads = 1;
    MatchContext ctx;
    MatchRelation reference_b = ComputeBoundedSimulation(snap, q, serial, &ctx);
    MatchRelation reference_d = ComputeDualSimulation(snap, q, serial, &ctx);
    for (uint32_t threads : {2u, 4u, 8u}) {
      MatchOptions opts;
      opts.num_threads = threads;
      EXPECT_TRUE(ComputeBoundedSimulation(snap, q, opts, &ctx) == reference_b)
          << "pattern " << i << " threads " << threads;
      EXPECT_TRUE(ComputeDualSimulation(snap, q, opts, &ctx) == reference_d)
          << "pattern " << i << " threads " << threads;
    }
  }
}

}  // namespace
}  // namespace expfinder
