// Experiment E1 — the paper's running example (Fig. 1, Examples 1-3), plus
// the §I semantic comparison of subgraph isomorphism vs simulation vs
// bounded simulation. Regenerates every concrete number the paper states.

#include "bench/bench_common.h"
#include "src/expfinder.h"

using namespace expfinder;
using namespace expfinder::bench;

namespace {

constexpr MatchSemantics kDual = MatchSemantics::kDualSimulation;

void RunFig1() {
  Header("E1.a Fig.1 running example",
         "M(Q,G) = 7 listed pairs; f(SA,Bob)=9/5, f(SA,Walt)=7/3; Bob top-1; "
         "inserting e1 adds exactly (SD,Fred)");
  Graph g = gen::BuildFig1Graph();
  Pattern q = gen::BuildFig1Pattern();
  MatchRelation m = ComputeBoundedSimulation(g, q);
  ResultGraph gr(g, q, m);

  Table t({"quantity", "paper", "measured", "match"});
  auto row = [&](const std::string& name, const std::string& paper,
                 const std::string& measured) {
    t.AddRow({name, paper, measured, paper == measured ? "yes" : "NO"});
  };
  row("|M(Q,G)|", "7", Table::Int(static_cast<int64_t>(m.TotalPairs())));
  row("M(Q,G)",
      "{(SA,Bob), (SA,Walt), (SD,Mat), (SD,Dan), (SD,Pat), (BA,Jean), (ST,Eva)}",
      m.ToString(q, g));
  row("f(SA,Bob)", Table::Num(9.0 / 5.0, 4),
      Table::Num(SocialImpactScore(gr, *gr.PositionOf(gen::Fig1::kBob)), 4));
  row("f(SA,Walt)", Table::Num(7.0 / 3.0, 4),
      Table::Num(SocialImpactScore(gr, *gr.PositionOf(gen::Fig1::kWalt)), 4));
  auto top = TopKMatches(gr, q, 1);
  row("top-1 SA", "Bob", top.ok() && !top->empty() ? g.DisplayName((*top)[0].node) : "?");

  IncrementalBoundedSimulation inc(&g, q);
  auto [src, dst] = gen::Fig1EdgeE1();
  auto delta = inc.ApplyBatch({GraphUpdate::Insert(src, dst)});
  std::string delta_str = "?";
  if (delta.ok() && delta->added.size() == 1 && delta->removed.empty()) {
    delta_str = "+(" + q.node(delta->added[0].first).name + "," +
                g.DisplayName(delta->added[0].second) + ")";
  }
  row("delta after e1", "+(SD,Fred)", delta_str);
  std::printf("%s", t.ToString().c_str());
}

void RunSemanticComparison() {
  Header("E1.b semantics: isomorphism vs simulation vs bounded vs dual",
         "subgraph isomorphism is too restrictive (misses Fig.1 entirely); "
         "bounded simulation catches matches plain simulation cannot (§I); "
         "dual simulation (extension) additionally requires ancestors");
  Table t({"graph", "query", "iso embeddings", "sim pairs", "bounded-sim pairs",
           "dual-sim pairs"});

  {
    Graph g = gen::BuildFig1Graph();
    Pattern q = gen::BuildFig1Pattern();
    IsoResult iso = FindIsomorphicEmbeddings(g, q);
    // Plain simulation view of Q: same topology, all bounds 1.
    Pattern q1;
    for (const PatternNode& n : q.nodes()) (void)q1.AddNode(n);
    for (const PatternEdge& e : q.edges()) (void)q1.AddEdge(e.src, e.dst, 1);
    (void)q1.SetOutput(*q.output_node());
    t.AddRow({"fig1", "Q(Fig.1)", Table::Int(static_cast<int64_t>(iso.embeddings.size())),
              Table::Int(
                  static_cast<int64_t>(ComputeBoundedSimulation(g, q1).TotalPairs())),
              Table::Int(
                  static_cast<int64_t>(ComputeBoundedSimulation(g, q).TotalPairs())),
              Table::Int(static_cast<int64_t>(
                  ComputeBoundedSimulation(g, q, {}, kDual).TotalPairs()))});
  }
  for (uint64_t seed : {1ULL, 2ULL}) {
    Graph g = MakeCollab(300, seed);
    Pattern q = gen::TeamQuery(0);
    Pattern q1;
    for (const PatternNode& n : q.nodes()) (void)q1.AddNode(n);
    for (const PatternEdge& e : q.edges()) (void)q1.AddEdge(e.src, e.dst, 1);
    (void)q1.SetOutput(*q.output_node());
    IsoOptions iopts;
    iopts.max_embeddings = 100000;
    IsoResult iso = FindIsomorphicEmbeddings(g, q1, iopts);
    t.AddRow({"collab300/s" + std::to_string(seed), "Q1(bounds=1)",
              Table::Int(static_cast<int64_t>(iso.embeddings.size())) +
                  (iso.truncated ? "+" : ""),
              Table::Int(
                  static_cast<int64_t>(ComputeBoundedSimulation(g, q1).TotalPairs())),
              Table::Int(
                  static_cast<int64_t>(ComputeBoundedSimulation(g, q).TotalPairs())),
              Table::Int(static_cast<int64_t>(
                  ComputeBoundedSimulation(g, q, {}, kDual).TotalPairs()))});
  }
  std::printf("%s", t.ToString().c_str());
}

}  // namespace

int main() {
  RunFig1();
  RunSemanticComparison();
  return 0;
}
