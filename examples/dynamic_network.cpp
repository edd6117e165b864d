// Dynamic social network (paper §II "Incremental Computation Module" and
// §III "Coping with the dynamic world"): register frequently issued queries
// with the service, stream edge updates through Mutate, and compare
// maintained answers against batch recomputation.
//
//   $ ./dynamic_network [n] [num_batches] [batch_size]

#include <cstdio>
#include <iostream>
#include <string>

#include "examples/example_args.h"
#include "src/expfinder.h"

using namespace expfinder;

namespace {
constexpr char kUsage[] = "usage: dynamic_network [n] [num_batches] [batch_size]\n";
}

int main(int argc, char** argv) {
  auto args =
      examples::PositionalUintsOrExit(argc, argv, kUsage, {20000, 10, 50});
  size_t n = args[0];
  size_t num_batches = args[1];
  size_t batch_size = args[2];

  gen::TwitterLikeConfig cfg;
  cfg.n = n;
  cfg.seed = 42;
  Graph g = gen::TwitterLike(cfg);
  std::cout << "=== Dynamic expert search on a Twitter-like network ===\n";
  std::printf("graph: %zu nodes, %zu edges\n\n", g.NumNodes(), g.NumEdges());

  Pattern q = gen::TeamQuery(0);
  ExpFinderService service(&g);
  if (Status st = service.RegisterMaintainedQuery(q); !st.ok()) {
    std::cerr << "register failed: " << st << "\n";
    return 1;
  }
  QueryRequest request;
  request.pattern = q;
  request.use_cache = false;  // show the maintained path, not a cache hit
  auto initial = service.Query(request);
  if (!initial.ok()) {
    std::cerr << initial.status() << "\n";
    return 1;
  }
  std::printf("initial matches: %zu pairs [path: %s]\n\n",
              initial->answer->matches.TotalPairs(),
              std::string(ServingPathName(initial->path)).c_str());

  Table table({"batch", "updates", "inc ms", "batch ms", "speedup", "matches"});
  Rng rng(7);
  for (size_t b = 0; b < num_batches; ++b) {
    UpdateBatch batch = GenerateUpdateStream(g, batch_size, 0.5, rng.Next());

    // Incremental path (through the service's maintained state).
    Timer inc_timer;
    if (Status st = service.Mutate(batch); !st.ok()) {
      std::cerr << "update failed: " << st << "\n";
      return 1;
    }
    auto maintained = service.Query(request);
    double inc_ms = inc_timer.ElapsedMillis();

    // Batch recomputation on the (already updated) graph for comparison.
    Timer batch_timer;
    MatchRelation recomputed = ComputeBoundedSimulation(g, q);
    double batch_ms = batch_timer.ElapsedMillis();

    if (!maintained.ok() || !(maintained->answer->matches == recomputed) ||
        maintained->path != ServingPath::kMaintained) {
      std::cerr << "MISMATCH at batch " << b << "\n";
      return 1;
    }
    table.AddRow({Table::Int(static_cast<int64_t>(b)),
                  Table::Int(static_cast<int64_t>(batch.size())),
                  Table::Num(inc_ms, 2), Table::Num(batch_ms, 2),
                  Table::Num(batch_ms / std::max(inc_ms, 1e-9), 1),
                  Table::Int(static_cast<int64_t>(recomputed.TotalPairs()))});
  }
  std::cout << table.ToString();
  std::cout << "\n(incremental answers verified equal to recomputation at every step)\n";
  return 0;
}
