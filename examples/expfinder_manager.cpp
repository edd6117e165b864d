// ExpFinder Manager — the command-line counterpart of the demo's GUI
// (paper Figs. 3-5): manage graphs in a file store, generate datasets,
// inspect them at roll-up/drill-down granularity, compress, query from
// .pattern files, rank experts, and export DOT for visualization.
//
// Usage:
//   expfinder_manager <store-dir> generate <name> <kind> <n> [seed]
//       kind: collab | twitter | er | fig1
//   expfinder_manager <store-dir> list
//   expfinder_manager <store-dir> info <graph>            (roll-up view)
//   expfinder_manager <store-dir> show <graph> <node-id>  (drill-down view)
//   expfinder_manager <store-dir> query <graph> <pattern-file> [top-k]
//   expfinder_manager <store-dir> compress <graph>
//   expfinder_manager <store-dir> update <graph> +src,dst [-src,dst ...]
//   expfinder_manager <store-dir> export <graph> <out.dot>

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "examples/example_args.h"
#include "src/expfinder.h"
#include "src/storage/fault_env.h"

using namespace expfinder;

namespace {

int Fail(const Status& st) {
  std::cerr << "error: " << st << "\n";
  return 1;
}

void PrintUsage(std::ostream& out) {
  out << "usage: expfinder_manager <store-dir> "
         "<generate|list|info|show|query|compress|update|export> ...\n";
}

int Usage() {
  PrintUsage(std::cerr);
  return 2;
}

int CmdGenerate(GraphStore* store, const std::vector<std::string>& args) {
  if (args.size() < 3) return Usage();
  const std::string& name = args[0];
  const std::string& kind = args[1];
  auto n_arg = examples::ParseUint(args[2]);
  auto seed_arg =
      args.size() > 3 ? examples::ParseUint(args[3]) : std::optional<uint64_t>(42);
  if (!n_arg || !seed_arg) return Usage();
  size_t n = *n_arg;
  uint64_t seed = *seed_arg;
  Graph g;
  if (kind == "collab") {
    gen::CollaborationConfig cfg;
    cfg.num_people = n;
    cfg.num_teams = std::max<size_t>(1, n / 6);
    cfg.seed = seed;
    g = gen::CollaborationNetwork(cfg);
  } else if (kind == "twitter") {
    gen::TwitterLikeConfig cfg;
    cfg.n = n;
    cfg.seed = seed;
    g = gen::TwitterLike(cfg);
  } else if (kind == "er") {
    g = gen::ErdosRenyi(n, 5 * n, seed);
  } else if (kind == "fig1") {
    g = gen::BuildFig1Graph();
  } else {
    return Usage();
  }
  if (Status st = store->PutGraph(name, g); !st.ok()) return Fail(st);
  std::cout << "stored graph '" << name << "': " << g.NumNodes() << " nodes, "
            << g.NumEdges() << " edges\n";
  return 0;
}

int CmdList(GraphStore* store) {
  for (const char* kind : {"graph", "pattern", "matches"}) {
    std::cout << kind << ":\n";
    for (const std::string& name : store->List(kind)) {
      std::cout << "  " << name << "\n";
    }
  }
  return 0;
}

int CmdInfo(GraphStore* store, const std::string& name) {
  auto g = store->GetGraph(name);
  if (!g.ok()) return Fail(g.status());
  std::cout << FormatStats(ComputeStats(*g));
  return 0;
}

int CmdShow(GraphStore* store, const std::string& name, NodeId v) {
  auto g = store->GetGraph(name);
  if (!g.ok()) return Fail(g.status());
  if (!g->IsValidNode(v)) return Fail(Status::InvalidArgument("no such node"));
  Table t({"field", "value"});
  t.AddRow({"id", Table::Int(v)});
  t.AddRow({"name", g->DisplayName(v)});
  t.AddRow({"label", g->NodeLabelName(v)});
  for (const auto& [key, value] : g->Attrs(v)) {
    t.AddRow({g->AttrKeyName(key), value.ToString()});
  }
  t.AddRow({"out-degree", Table::Int(static_cast<int64_t>(g->OutDegree(v)))});
  t.AddRow({"in-degree", Table::Int(static_cast<int64_t>(g->InDegree(v)))});
  std::cout << t.ToString();
  std::cout << "collaborators:";
  for (NodeId w : g->OutNeighbors(v)) std::cout << " " << g->DisplayName(w);
  std::cout << "\n";
  return 0;
}

int CmdQuery(GraphStore* store, const std::vector<std::string>& args) {
  if (args.size() < 2) return Usage();
  auto g = store->GetGraph(args[0]);
  if (!g.ok()) return Fail(g.status());
  auto text = FileOps::Real()->ReadFileToString(args[1]);
  if (!text.ok()) return Fail(text.status());
  auto q = ParsePatternText(*text);
  if (!q.ok()) return Fail(q.status());
  size_t k = 5;
  if (args.size() > 2) {
    auto k_arg = examples::ParseUint(args[2]);
    if (!k_arg) return Usage();
    k = *k_arg;
  }

  Graph graph = std::move(g).value();
  ExpFinderService service(&graph);
  QueryRequest request;
  request.pattern = std::move(q).value();
  request.top_k = k;
  auto response = service.Query(request);
  if (!response.ok()) return Fail(response.status());
  std::cout << "matches: " << response->answer->matches.TotalPairs()
            << " pairs; result graph " << response->answer->result_graph.NumNodes()
            << " nodes / " << response->answer->result_graph.NumEdges()
            << " edges [path: " << ServingPathName(response->path) << ", "
            << response->eval_ms << " ms]\n";
  Table t({"rank", "expert", "label", "f(v)"});
  int rank = 1;
  for (const RankedMatch& r : response->ranked) {
    t.AddRow({Table::Int(rank++), graph.DisplayName(r.node),
              graph.NodeLabelName(r.node), Table::Num(r.score, 3)});
  }
  std::cout << t.ToString();
  if (Status st = store->PutMatches(args[0] + "_last", response->answer->matches);
      !st.ok()) {
    return Fail(st);
  }
  std::cout << "(cached result stored as '" << args[0] << "_last')\n";
  return 0;
}

int CmdCompress(GraphStore* store, const std::string& name) {
  auto g = store->GetGraph(name);
  if (!g.ok()) return Fail(g.status());
  auto cg = CompressedGraph::Build(*g, {true, {"experience"}});
  if (!cg.ok()) return Fail(cg.status());
  std::printf("%s: %zu -> %u classes (%.1f%% nodes, %.1f%% edges)\n", name.c_str(),
              g->NumNodes(), cg->NumClasses(), 100.0 * cg->NodeRatio(),
              100.0 * cg->EdgeRatio());
  if (Status st = store->PutGraph(name + "_compressed", cg->gc()); !st.ok()) {
    return Fail(st);
  }
  std::cout << "stored as '" << name << "_compressed'\n";
  return 0;
}

int CmdUpdate(GraphStore* store, const std::vector<std::string>& args) {
  if (args.size() < 2) return Usage();
  auto g = store->GetGraph(args[0]);
  if (!g.ok()) return Fail(g.status());
  Graph graph = std::move(g).value();
  UpdateBatch batch;
  for (size_t i = 1; i < args.size(); ++i) {
    const std::string& spec = args[i];
    if (spec.size() < 4 || (spec[0] != '+' && spec[0] != '-')) return Usage();
    size_t comma = spec.find(',');
    if (comma == std::string::npos) return Usage();
    auto a = examples::ParseUint(std::string_view(spec).substr(1, comma - 1));
    auto b = examples::ParseUint(std::string_view(spec).substr(comma + 1));
    if (!a || !b) return Usage();
    batch.push_back(spec[0] == '+'
                        ? GraphUpdate::Insert(static_cast<NodeId>(*a),
                                              static_cast<NodeId>(*b))
                        : GraphUpdate::Delete(static_cast<NodeId>(*a),
                                              static_cast<NodeId>(*b)));
  }
  if (Status st = ApplyBatch(&graph, batch); !st.ok()) return Fail(st);
  if (Status st = store->PutGraph(args[0], graph); !st.ok()) return Fail(st);
  std::cout << "applied " << batch.size() << " updates; graph now "
            << graph.NumEdges() << " edges\n";
  return 0;
}

int CmdExport(GraphStore* store, const std::vector<std::string>& args) {
  if (args.size() < 2) return Usage();
  auto g = store->GetGraph(args[0]);
  if (!g.ok()) return Fail(g.status());
  std::ofstream out(args[1]);
  if (!out.is_open()) return Fail(Status::IOError("cannot open " + args[1]));
  out << GraphToDot(*g);
  std::cout << "wrote " << args[1] << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (examples::WantsHelp(argc, argv)) {
    PrintUsage(std::cout);
    return 0;
  }
  if (argc < 3) return Usage();
  auto store = GraphStore::Open(argv[1]);
  if (!store.ok()) return Fail(store.status());
  std::string cmd = argv[2];
  std::vector<std::string> args(argv + 3, argv + argc);
  if (cmd == "generate") return CmdGenerate(&*store, args);
  if (cmd == "list") return CmdList(&*store);
  if (cmd == "info" && args.size() == 1) return CmdInfo(&*store, args[0]);
  if (cmd == "show" && args.size() == 2) {
    auto v = examples::ParseUint(args[1]);
    if (!v) return Usage();
    return CmdShow(&*store, args[0], static_cast<NodeId>(*v));
  }
  if (cmd == "query") return CmdQuery(&*store, args);
  if (cmd == "compress" && args.size() == 1) return CmdCompress(&*store, args[0]);
  if (cmd == "update") return CmdUpdate(&*store, args);
  if (cmd == "export") return CmdExport(&*store, args);
  return Usage();
}
