// Quickstart: the paper's running example end to end (Fig. 1, Examples
// 1-3), served through the ExpFinderService API. Builds the collaboration
// network and the bounded-simulation query, answers one typed QueryRequest
// (match + rank in a single round trip), then registers the query as
// maintained, inserts edge e1 via Mutate, and reads the refreshed answer.
// The final section submits two requests asynchronously (Submit ->
// QueryTicket) to show the non-blocking half of the API.
//
//   $ ./quickstart

#include <cstdio>
#include <iostream>
#include <string>

#include "examples/example_args.h"
#include "src/expfinder.h"

using namespace expfinder;

int main(int argc, char** argv) {
  (void)examples::PositionalUintsOrExit(argc, argv,
                                        "usage: quickstart (no arguments)\n", {});

  // --- The data graph of Fig. 1(b) and the query of Fig. 1(a) -------------
  Graph g = gen::BuildFig1Graph();
  ExpFinderService service(&g);

  QueryRequest request;
  request.pattern = gen::BuildFig1Pattern();
  request.top_k = 10;  // rank every SA match (there are 2)

  std::cout << "=== ExpFinder quickstart (paper Fig. 1) ===\n\n";
  std::cout << "Collaboration network: " << g.NumNodes() << " people, "
            << g.NumEdges() << " collaboration edges\n";
  std::cout << "Query:\n" << request.pattern.ToText() << "\n";

  // --- Examples 1 + 2: one request answers matching *and* ranking ---------
  auto response = service.Query(request);
  if (!response.ok()) {
    std::cerr << "query failed: " << response.status() << "\n";
    return 1;
  }
  std::cout << "M(Q,G) = " << response->answer->matches.ToString(request.pattern, g)
            << "\n\n";
  std::cout << "Result graph: " << response->answer->result_graph.NumNodes()
            << " nodes, " << response->answer->result_graph.NumEdges()
            << " edges (served via " << ServingPathName(response->path) << ", "
            << "graph version " << response->graph_version << ")\n";
  std::cout << "SA experts by social impact f(SA, v) (smaller = better):\n";
  for (const RankedMatch& r : response->ranked) {
    std::printf("  %-6s f = %.4f\n", g.DisplayName(r.node).c_str(), r.score);
  }
  std::cout << "Top-1 expert: " << g.DisplayName(response->ranked[0].node)
            << " (the paper's Bob, f = 9/5)\n\n";

  // --- Example 3: incremental maintenance under edge e1 -------------------
  if (Status st = service.RegisterMaintainedQuery(request.pattern); !st.ok()) {
    std::cerr << "register failed: " << st << "\n";
    return 1;
  }
  auto [fred, jean] = gen::Fig1EdgeE1();
  std::cout << "Registering Q as maintained, then inserting e1 = ("
            << g.DisplayName(fred) << ", " << g.DisplayName(jean) << ") ...\n";
  if (Status st = service.Mutate({GraphUpdate::Insert(fred, jean)}); !st.ok()) {
    std::cerr << "update failed: " << st << "\n";
    return 1;
  }
  QueryRequest fresh = request;
  fresh.use_cache = false;  // show the maintained path (a cached answer is fresh too)
  fresh.top_k = std::nullopt;
  auto updated = service.Query(fresh);
  if (!updated.ok()) {
    std::cerr << "query failed: " << updated.status() << "\n";
    return 1;
  }
  std::cout << "M(Q,G + e1) = "
            << updated->answer->matches.ToString(request.pattern, g) << " [path: "
            << ServingPathName(updated->path) << "]\n\n";

  // --- Drill down: why does Fred now match? (witness paths) ---------------
  auto explanation = ExplainMatch(g, request.pattern, updated->answer->matches,
                                  *request.pattern.FindNode("SD"), fred);
  if (explanation.ok()) {
    std::cout << "Drill-down: " << explanation->ToString(g, request.pattern) << "\n";
  }

  // --- Extension: dual simulation also demands matching ancestors ---------
  auto tom = service.AddNode("ST", {{"name", AttrValue("Tom")},
                                    {"experience", AttrValue(3)}});
  if (!tom.ok()) {
    std::cerr << "add node failed: " << tom.status() << "\n";
    return 1;
  }
  QueryRequest bounded = fresh;
  QueryRequest dual = fresh;
  dual.semantics = MatchSemantics::kDualSimulation;
  dual.priority = QueryPriority::kInteractive;  // jumps the admission queue
  // Submit both asynchronously: the tickets are in flight together and the
  // calling thread blocks only when it actually needs each answer.
  QueryTicket bounded_ticket = service.Submit(bounded);
  QueryTicket dual_ticket = service.Submit(dual);
  auto bounded_resp = bounded_ticket.Get();
  auto dual_resp = dual_ticket.Get();
  if (!bounded_resp.ok() || !dual_resp.ok()) {
    std::cerr << "semantics comparison failed\n";
    return 1;
  }
  PatternNodeId st_node = *request.pattern.FindNode("ST");
  std::cout << "After hiring Tom (a tester nobody worked with yet):\n"
            << "  bounded simulation matches him to ST: "
            << (bounded_resp->answer->matches.Contains(st_node, *tom) ? "yes" : "no")
            << "\n"
            << "  dual simulation (ancestors required):  "
            << (dual_resp->answer->matches.Contains(st_node, *tom) ? "yes" : "no")
            << "\n\n";

  // --- Export the result graph for Graphviz (the GUI substitute) ----------
  std::cout << "DOT of the result graph (top-1 highlighted):\n"
            << ResultGraphToDot(updated->answer->result_graph, g, request.pattern,
                                {response->ranked[0].node});
  std::cout << "\nservice stats: " << service.stats().ToString() << "\n";
  return 0;
}
