#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "src/generator/generators.h"
#include "src/graph/shortest_paths.h"
#include "src/matching/bounded_simulation.h"
#include "src/matching/dual_simulation.h"
#include "src/matching/match_context.h"
#include "src/matching/result_graph.h"
#include "src/matching/simulation.h"

namespace expfinder {
namespace {

// Chain A -> X -> B: bound-2 edge a->b must match through the intermediate.
TEST(BoundedSimulationTest, EdgeMapsToPath) {
  Graph g;
  g.AddNode("A");
  g.AddNode("X");
  g.AddNode("B");
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ASSERT_TRUE(g.AddEdge(1, 2).ok());
  PatternBuilder b;
  auto a = b.Node("A", "a").Output();
  auto bb = b.Node("B", "b");
  b.Edge(a, bb, 2);
  Pattern q = b.Build().value();

  MatchRelation m = ComputeBoundedSimulation(g, q);
  EXPECT_EQ(m.MatchesOf(0), (std::vector<NodeId>{0}));
  EXPECT_EQ(m.MatchesOf(1), (std::vector<NodeId>{2}));

  // Bound 1 cannot bridge two hops.
  PatternBuilder b1;
  auto a1 = b1.Node("A", "a").Output();
  auto bb1 = b1.Node("B", "b");
  b1.Edge(a1, bb1, 1);
  EXPECT_TRUE(ComputeBoundedSimulation(g, b1.Build().value()).IsEmpty());
}

TEST(BoundedSimulationTest, BoundOneEqualsSimulation) {
  Graph g = gen::CollaborationNetwork({});
  for (int i = 0; i < 6; ++i) {
    Pattern q = gen::RandomPattern(4, 5, 1, 0.4, 500 + i);
    ASSERT_TRUE(q.IsSimulationPattern());
    EXPECT_TRUE(ComputeBoundedSimulation(g, q) == ComputeSimulationNaive(g, q)) << i;
  }
}

TEST(BoundedSimulationTest, LargerBoundsOnlyAddMatches) {
  Graph g = gen::ErdosRenyi(60, 180, 77);
  for (int i = 0; i < 4; ++i) {
    Pattern q1 = gen::RandomPattern(4, 5, 1, 0.3, 600 + i);
    // Same topology with bounds bumped to 2: rebuild by editing text.
    Pattern q2 = q1;
    Pattern rebuilt;
    for (const PatternNode& n : q1.nodes()) {
      ASSERT_TRUE(rebuilt.AddNode(n).ok());
    }
    for (const PatternEdge& e : q1.edges()) {
      ASSERT_TRUE(rebuilt.AddEdge(e.src, e.dst, e.bound + 1).ok());
    }
    ASSERT_TRUE(rebuilt.SetOutput(*q1.output_node()).ok());

    MatchRelation small = ComputeBoundedSimulation(g, q1);
    MatchRelation big = ComputeBoundedSimulation(g, rebuilt);
    // Containment: every match under tight bounds survives loose bounds.
    if (!small.IsEmpty()) {
      for (const auto& [u, v] : small.AllPairs()) {
        EXPECT_TRUE(big.IsEmpty() || big.Contains(u, v)) << u << "," << v;
      }
      EXPECT_FALSE(big.IsEmpty());
    }
  }
}

TEST(BoundedSimulationTest, CycleSatisfiesSelfEdge) {
  // 0 -> 1 -> 0 cycle: self-edge with bound 2 matches both; isolated 2 fails.
  Graph g;
  g.AddNode("A");
  g.AddNode("A");
  g.AddNode("A");
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ASSERT_TRUE(g.AddEdge(1, 0).ok());
  PatternBuilder b;
  auto a = b.Node("A", "a").Output();
  b.Edge(a, a, 2);
  Pattern q = b.Build().value();
  MatchRelation m = ComputeBoundedSimulation(g, q);
  EXPECT_EQ(m.MatchesOf(0), (std::vector<NodeId>{0, 1}));
}

TEST(BoundedSimulationTest, UnboundedEdgeIsReachability) {
  // Long chain: unbounded edge matches across any distance.
  Graph g;
  for (int i = 0; i < 10; ++i) g.AddNode(i == 9 ? "B" : "A");
  for (int i = 0; i < 9; ++i) ASSERT_TRUE(g.AddEdge(i, i + 1).ok());
  PatternBuilder b;
  auto a = b.Node("A", "a").Output();
  auto bb = b.Node("B", "b");
  b.Edge(a, bb, kUnboundedEdge);
  Pattern q = b.Build().value();
  MatchRelation m = ComputeBoundedSimulation(g, q);
  EXPECT_EQ(m.MatchesOf(0).size(), 9u);  // every A reaches the B
}

TEST(BoundedSimulationTest, MaximalityNoPairCanBeAdded) {
  // Every candidate pair absent from M must violate some edge constraint.
  Graph g = gen::ErdosRenyi(40, 200, 11);
  MatchRelation m;
  Pattern q;
  bool found_instance = false;
  for (uint64_t seed = 990; seed < 1040 && !found_instance; ++seed) {
    q = gen::RandomPattern(4, 5, 3, 0.3, seed);
    m = ComputeBoundedSimulation(g, q);
    found_instance = !m.IsEmpty();
  }
  ASSERT_TRUE(found_instance) << "no seed produced a non-empty instance";
  DistanceMatrix dist(g, q.MaxBound());
  for (PatternNodeId u = 0; u < q.NumNodes(); ++u) {
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      if (m.Contains(u, v) || !q.node(u).Matches(g, v)) continue;
      bool violates = false;
      for (uint32_t e : q.OutEdges(u)) {
        const PatternEdge& pe = q.edges()[e];
        bool supported = false;
        for (NodeId w : m.MatchesOf(pe.dst)) {
          if (dist.At(v, w) <= pe.bound) {
            supported = true;
            break;
          }
        }
        if (!supported) {
          violates = true;
          break;
        }
      }
      EXPECT_TRUE(violates) << "(" << u << "," << v << ") could have been added";
    }
  }
}

TEST(BoundedSimulationTest, LabelIndexOffMatchesOn) {
  Graph g = gen::TwitterLike({.n = 400, .out_per_node = 4, .seed = 3});
  for (int i = 0; i < 4; ++i) {
    Pattern q = gen::RandomPattern(4, 5, 3, 0.4, 700 + i);
    MatchOptions on, off;
    off.use_label_index = false;
    EXPECT_TRUE(ComputeBoundedSimulation(g, q, on) ==
                ComputeBoundedSimulation(g, q, off))
        << i;
  }
}

// --- One oracle sweep for every semantics the matcher computes ----------
//
// Each row runs `patterns` random patterns on one Erdős–Rényi graph and
// compares the matcher with the oracle of the row's semantics: bound-1 rows
// with ComputeSimulationNaive, bounded rows with
// ComputeBoundedSimulationNaive, dual rows with ComputeDualSimulationNaive.
// Two empty relations compare equal whatever the matcher does, so pattern
// labels are drawn from the graph's three commonest (Zipf-assigned) labels,
// each row's density is set so that most of its instances are nonempty,
// and the test asserts that they are.

struct SweepParam {
  uint64_t seed;
  uint32_t n, m;
  uint32_t qn, qm;
  Distance max_bound;
  MatchSemantics semantics;
  int patterns;
};

constexpr MatchSemantics kBounded = MatchSemantics::kBoundedSimulation;
constexpr MatchSemantics kDual = MatchSemantics::kDualSimulation;

// Prints the row as its CTest name suffix (e.g. seed3_n70_m315_b2_bounded),
// in place of the struct's raw bytes, padding included, which change from
// build to build.
void PrintTo(const SweepParam& p, std::ostream* os) {
  *os << "seed" << p.seed << "_n" << p.n << "_m" << p.m << "_b" << p.max_bound
      << (p.semantics == kDual ? "_dual" : "_bounded");
}

class MatcherSweep : public ::testing::TestWithParam<SweepParam> {};

/// The oracle of a row's semantics: bound-1 patterns (graph simulation)
/// check against ComputeSimulationNaive.
MatchRelation OracleOf(const Graph& g, const Pattern& q, MatchSemantics semantics) {
  if (semantics == kDual) return ComputeDualSimulationNaive(g, q);
  return q.IsSimulationPattern() ? ComputeSimulationNaive(g, q)
                                 : ComputeBoundedSimulationNaive(g, q);
}

// --- One ball scan feeds the whole evaluation ---------------------------
//
// Seeding records every support pair its forward ball scans find; the
// fixpoint refines over them and ResultGraph's pair form assembles the
// result graph from them, with no further traversal. Under every ball-index
// setting (eager, off, capped so that some balls fall back to BFS) and at 1
// and 4 seeding threads, the relation must equal the oracle's, and the
// result graph assembled from the pairs must equal the scan-built one
// (nodes, out and in adjacency, weights).

struct IndexSetting {
  const char* name;
  BallIndexOptions options;
};

std::vector<IndexSetting> IndexSettings() {
  BallIndexOptions eager;
  eager.build_after_uses = 1;
  BallIndexOptions off;
  off.enabled = false;
  BallIndexOptions capped = eager;
  capped.max_ball_nodes = 4;
  return {{"eager", eager}, {"off", off}, {"capped", capped}};
}

/// Traversals the eager index served and the capped index sent to BFS,
/// so a sweep can assert it ran both paths.
struct TraversalTally {
  size_t eager_hits = 0;
  size_t capped_fallbacks = 0;
};

/// `ctx` carries over from run to run, as a serving worker's does, so no
/// run may read another's pairs or counters.
void ExpectPairsMatchOracleAndScan(const Graph& g, const Pattern& q,
                                   MatchSemantics semantics, const MatchRelation& oracle,
                                   MatchContext* ctx, TraversalTally* tally) {
  for (const IndexSetting& index : IndexSettings()) {
    for (uint32_t threads : {1u, 4u}) {
      SCOPED_TRACE(std::string("index ") + index.name + ", " + std::to_string(threads) +
                   " threads, pattern\n" + q.ToText());
      MatchOptions options;
      options.ball_index = index.options;
      options.num_threads = threads;
      // A fresh snapshot per setting, so each builds its own index.
      SnapshotPtr snap = GraphSnapshot::Capture(g);
      const size_t hits0 = ctx->ball_hits(), falls0 = ctx->bfs_fallbacks();
      MatchRelation m = ComputeBoundedSimulation(snap, q, options, ctx, semantics);
      EXPECT_TRUE(m == oracle);
      // One traversal per seeded candidate, none after seeding.
      const size_t hits = ctx->ball_hits() - hits0, falls = ctx->bfs_fallbacks() - falls0;
      size_t seeded = 0;
      for (PatternNodeId u = 0; u < q.NumNodes(); ++u) {
        if (!q.OutEdges(u).empty()) seeded += ctx->Pairs().candidates[u].size();
      }
      if (index.options.enabled) {
        EXPECT_EQ(hits + falls, seeded);
      }
      if (index.name == std::string_view("eager")) tally->eager_hits += hits;
      if (index.name == std::string_view("capped")) tally->capped_fallbacks += falls;
      ResultGraph assembled(q, m, ctx->Pairs());
      MatchContext scan_ctx;
      ResultGraph scanned(snap, q, m, &scan_ctx);
      EXPECT_TRUE(assembled == scanned)
          << "pairs: " << assembled.NumNodes() << " nodes, " << assembled.NumEdges()
          << " edges; scan: " << scanned.NumNodes() << " nodes, " << scanned.NumEdges()
          << " edges";
    }
  }
}

TEST_P(MatcherSweep, MatchesNaiveOracle) {
  const SweepParam p = GetParam();
  const bool dual = p.semantics == kDual;
  Graph g = gen::ErdosRenyi(p.n, p.m, p.seed);
  gen::LabelModel common = gen::DefaultExpertiseModel();
  common.labels.resize(3);
  int nonempty = 0;
  for (int i = 0; i < p.patterns; ++i) {
    Pattern q = gen::RandomPattern(p.qn, p.qm, p.max_bound, 0.4,
                                   p.seed * (dual ? 67 : 53) + i, common);
    MatchRelation fast = ComputeBoundedSimulation(g, q, {}, p.semantics);
    MatchRelation naive = OracleOf(g, q, p.semantics);
    EXPECT_TRUE(fast == naive) << "pattern " << i << "\n" << q.ToText();
    nonempty += !naive.IsEmpty();
  }
  EXPECT_GT(2 * nonempty, p.patterns) << "most instances must match something";
}

TEST_P(MatcherSweep, SupportPairsMatchOracleAndScanAcrossIndexAndThreads) {
  const SweepParam p = GetParam();
  const bool dual = p.semantics == kDual;
  Graph g = gen::ErdosRenyi(p.n, p.m, p.seed);
  gen::LabelModel common = gen::DefaultExpertiseModel();
  common.labels.resize(3);
  MatchContext ctx;
  TraversalTally tally;
  for (int i = 0; i < p.patterns; ++i) {
    Pattern q = gen::RandomPattern(p.qn, p.qm, p.max_bound, 0.4,
                                   p.seed * (dual ? 67 : 53) + i, common);
    ExpectPairsMatchOracleAndScan(g, q, p.semantics, OracleOf(g, q, p.semantics), &ctx,
                                  &tally);
  }
  EXPECT_GT(tally.eager_hits, 0u);
  EXPECT_GT(tally.capped_fallbacks, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, MatcherSweep,
    ::testing::Values(
        // Graph simulation (bound 1).
        SweepParam{1, 30, 180, 3, 3, 1, kBounded, 5},
        SweepParam{2, 50, 375, 4, 5, 1, kBounded, 5},
        SweepParam{3, 80, 720, 5, 7, 1, kBounded, 5},
        SweepParam{4, 120, 900, 4, 6, 1, kBounded, 5},
        SweepParam{5, 60, 1680, 6, 9, 1, kBounded, 5},
        SweepParam{6, 25, 150, 3, 2, 1, kBounded, 5},
        // Bounded simulation.
        SweepParam{1, 30, 90, 3, 3, 2, kBounded, 4},
        SweepParam{2, 50, 200, 4, 5, 3, kBounded, 4},
        SweepParam{3, 70, 315, 5, 7, 2, kBounded, 4},
        SweepParam{4, 40, 240, 4, 6, 4, kBounded, 4},
        SweepParam{5, 90, 540, 4, 5, 3, kBounded, 4},
        SweepParam{6, 25, 100, 3, 4, 5, kBounded, 4},
        SweepParam{7, 60, 240, 5, 6, 2, kBounded, 4},
        // Bounded dual simulation.
        SweepParam{1, 30, 180, 4, 5, 2, kDual, 4},
        SweepParam{2, 50, 200, 4, 5, 3, kDual, 4},
        SweepParam{3, 70, 840, 4, 5, 1, kDual, 4},
        SweepParam{4, 40, 240, 4, 5, 4, kDual, 4},
        SweepParam{5, 60, 360, 4, 5, 2, kDual, 4}));

// The shapes random patterns rarely draw: an unbounded (reachability)
// edge, a self-loop, and parallel edges of different bounds. Pattern
// refuses a second edge between the same two nodes, so the parallel pair
// runs from one source to two nodes of the same label, one data pair then
// supporting both edges, beside an antiparallel edge back.
TEST(SupportPairsTest, UnboundedSelfLoopAndParallelEdgesMatchOracleAndScan) {
  std::vector<Pattern> patterns;
  {
    PatternBuilder b;
    auto sd = b.Node("SD", "sd").Output();
    auto st = b.Node("ST", "st");
    auto ba = b.Node("BA", "ba");
    b.Edge(sd, st, kUnboundedEdge).Edge(st, ba, 2);
    patterns.push_back(b.Build().value());
  }
  {
    PatternBuilder b;
    auto sd = b.Node("SD", "sd").Output();
    auto st = b.Node("ST", "st");
    b.Edge(sd, sd, 2).Edge(sd, st, 1);
    patterns.push_back(b.Build().value());
  }
  {
    PatternBuilder b;
    auto sd = b.Node("SD", "sd").Output();
    auto near = b.Node("ST", "near");
    auto far = b.Node("ST", "far");
    b.Edge(sd, near, 1).Edge(sd, far, 3).Edge(far, sd, 2);
    patterns.push_back(b.Build().value());
  }
  int checked = 0, nonempty = 0;
  MatchContext ctx;
  TraversalTally tally;
  for (uint64_t seed : {3, 4}) {
    Graph g = gen::ErdosRenyi(60, 150, seed);
    for (const Pattern& q : patterns) {
      for (MatchSemantics semantics : {kBounded, kDual}) {
        MatchRelation oracle = OracleOf(g, q, semantics);
        ExpectPairsMatchOracleAndScan(g, q, semantics, oracle, &ctx, &tally);
        ++checked;
        nonempty += !oracle.IsEmpty();
      }
    }
  }
  EXPECT_EQ(nonempty, checked) << "every instance must match something";
  EXPECT_GT(tally.eager_hits, 0u);
  EXPECT_GT(tally.capped_fallbacks, 0u);
}

// An idle context keeps O(|V|) words of pair capacity: unbinding frees the
// pairs of a large evaluation, and a small one's stay for reuse.
TEST(SupportPairsTest, UnbindTrimsPairCapacityToTheGraphSize) {
  Graph g = gen::ErdosRenyi(200, 1600, 5);
  PatternBuilder b;
  auto sd = b.Node("SD", "sd").Output();
  auto st = b.Node("ST", "st");
  b.Edge(sd, st, kUnboundedEdge).Edge(st, sd, kUnboundedEdge);
  const Pattern reach = b.Build().value();
  const size_t cap = MatchContext::kIdlePairWordsPerNode * g.NumNodes();

  MatchContext ctx;
  SnapshotPtr snap = GraphSnapshot::Capture(g);
  MatchRelation m = ComputeBoundedSimulation(snap, reach, {}, &ctx);
  ASSERT_FALSE(m.IsEmpty());
  ASSERT_GT(ctx.Pairs().CapacityWords(), cap);  // reachability: every pair
  ctx.BindSnapshot(nullptr);
  EXPECT_LE(ctx.Pairs().CapacityWords(), cap);

  Graph sparse = gen::ErdosRenyi(200, 300, 5);
  PatternBuilder small;
  small.Edge(small.Node("SD", "sd").Output(), small.Node("ST", "st"), 1);
  ComputeBoundedSimulation(GraphSnapshot::Capture(sparse), small.Build().value(), {},
                           &ctx);
  const size_t kept = ctx.Pairs().CapacityWords();
  ASSERT_GT(kept, 0u);
  ASSERT_LE(kept, cap);
  ctx.BindSnapshot(nullptr);
  EXPECT_EQ(ctx.Pairs().CapacityWords(), kept);
}

// Collaboration networks exercise the label skew + team structure.
class BoundedCollabSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BoundedCollabSweep, MatchesNaiveOracleOnCollaborationGraphs) {
  gen::CollaborationConfig cfg;
  cfg.num_people = 80;
  cfg.num_teams = 20;
  cfg.seed = GetParam();
  Graph g = gen::CollaborationNetwork(cfg);
  for (int i = 0; i < 3; ++i) {
    Pattern q = gen::RandomPattern(4, 5, 3, 0.5, GetParam() * 101 + i);
    EXPECT_TRUE(ComputeBoundedSimulation(g, q) == ComputeBoundedSimulationNaive(g, q))
        << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundedCollabSweep, ::testing::Values(11, 22, 33, 44));

}  // namespace
}  // namespace expfinder
