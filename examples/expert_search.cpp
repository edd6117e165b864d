// Expert search: the "find experts about X" workload end to end (ISSUE 8).
// Generates a synthetic collaboration network whose people carry free-text
// "topics" expertise phrases, then serves topic queries through the
// ExpFinderService API: free-text terms compile into `* has_token`
// predicates on the pattern's output node, candidate seeding draws from the
// topic inverted index once it is warm, and the ranked list fuses TF-IDF
// topic relevance with structural goodness (ranking/fusion.h). The final
// section re-issues the query on a second service with the index disabled
// to show the identical-answers contract and prints the topic-index
// telemetry.
//
//   $ ./expert_search [nodes] [edges] [seed]

#include <cstdio>
#include <iostream>
#include <string>

#include "examples/example_args.h"
#include "src/expfinder.h"

using namespace expfinder;

int main(int argc, char** argv) {
  const auto args = examples::PositionalUintsOrExit(
      argc, argv, "usage: expert_search [nodes=2000] [edges=8000] [seed=42]\n",
      {2000, 8000, 42});
  const size_t nodes = args[0], edges = args[1];
  const uint64_t seed = args[2];

  // --- A collaboration network with free-text expertise -------------------
  Graph g = gen::ErdosRenyi(nodes, edges, seed, gen::TopicExpertiseModel());
  ServiceOptions options;
  options.engine.topic_index.build_after_uses = 2;  // warm on the 2nd use
  ExpFinderService service(&g, options);

  std::cout << "=== ExpFinder expert search (topic index + ranking fusion) ===\n\n"
            << "Collaboration network: " << g.NumNodes() << " people, "
            << g.NumEdges() << " edges; every person lists expertise phrases\n"
            << "in a free-text \"topics\" attribute (e.g. \""
            << gen::TopicExpertiseModel().topics[0] << "; "
            << gen::TopicExpertiseModel().topics[1] << "\").\n\n";

  // --- "Find experts about graph databases who collaborate with an SA" ----
  PatternBuilder b;
  auto expert = b.Node("", "expert");
  expert.Where("experience", CmpOp::kGe, AttrValue(3)).Output();
  auto peer = b.Node("SA", "peer");
  b.Edge(expert, peer, 2);
  QueryRequest request;
  request.pattern = b.Build().value();
  request.topic_terms = {"graph databases"};
  request.metric = RankingMetric::kTopicFusion;
  request.top_k = 5;
  request.use_cache = false;  // re-evaluate each round so the slot warms up

  std::cout << "Query: experts about \"graph databases\" (experience >= 3)\n"
            << "within 2 hops of an SA. Compiled pattern:\n"
            << CompileTopicTerms(request.pattern, request.topic_terms).ToText()
            << "\n";

  // First issue: the topic index is deferred, so seeding scans. Second
  // issue: the slot crosses build_after_uses, builds once, and seeds the
  // text predicates from posting lists.
  for (int round = 1; round <= 2; ++round) {
    auto response = service.Query(request);
    if (!response.ok()) {
      std::cerr << "query failed: " << response.status() << "\n";
      return 1;
    }
    std::cout << "Round " << round << ": " << response->answer->matches.TotalPairs()
              << " match pairs, top experts by fused topic+structure score:\n";
    for (const RankedMatch& r : response->ranked) {
      const AttrValue* topics = g.GetAttr(r.node, "topics");
      std::printf("  %-8s fused = %.4f  topics = %s\n", g.DisplayName(r.node).c_str(),
                  -r.score, topics != nullptr ? topics->AsString().c_str() : "-");
    }
    std::cout << "\n";
  }

  // --- The identical-answers contract -------------------------------------
  ServiceOptions scan_options = options;
  scan_options.engine.topic_index.enabled = false;  // label-scan seeding
  ExpFinderService scan_service(&g, scan_options);
  auto indexed = service.Query(request);
  auto scanned = scan_service.Query(request);
  if (!indexed.ok() || !scanned.ok()) {
    std::cerr << "A/B query failed\n";
    return 1;
  }
  std::cout << "Index on vs off: " << indexed->answer->matches.TotalPairs() << " vs "
            << scanned->answer->matches.TotalPairs() << " pairs, relations "
            << (indexed->answer->matches == scanned->answer->matches ? "identical"
                                                                     : "DIFFERENT")
            << " (the index only changes who gets probed).\n\n";

  ServiceStats stats = service.stats();
  std::cout << "Topic-index telemetry: " << stats.topic_index_builds << " build(s), "
            << stats.posting_hits << " pattern node(s) seeded from postings, "
            << stats.seed_scan_fallbacks << " scan fallback(s).\n";
  return 0;
}
