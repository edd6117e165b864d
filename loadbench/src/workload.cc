#include "workload.h"

#include <fstream>
#include <sstream>
#include <unordered_set>

namespace loadbench {

using namespace expfinder;

namespace {

constexpr size_t kGraphNodes = 10000;
/// The dataset is one fixed graph; the seed varies everything sent to it.
constexpr uint64_t kGraphSeed = 7;
/// The warm-up list is fixed too, so setup_s measures the system, not the
/// draw.
constexpr uint64_t kWarmupSeed = 0x7761726d;

struct NodeSpec {
  const char* label;
  int min_experience;  // < 0: no condition
};

struct EdgeSpec {
  PatternNodeId src, dst;
  Distance bound;
};

/// Node 0 is the output node.
Pattern BuildPattern(const std::vector<NodeSpec>& nodes,
                     const std::vector<EdgeSpec>& edges) {
  Pattern q;
  for (size_t i = 0; i < nodes.size(); ++i) {
    PatternNode node;
    node.name = "u" + std::to_string(i);
    node.label = nodes[i].label;
    if (nodes[i].min_experience >= 0) {
      node.conditions.emplace_back("experience", CmpOp::kGe,
                                   AttrValue(nodes[i].min_experience));
    }
    EF_CHECK(q.AddNode(std::move(node)).ok());
  }
  for (const EdgeSpec& e : edges) EF_CHECK(q.AddEdge(e.src, e.dst, e.bound).ok());
  EF_CHECK(q.SetOutput(0).ok());
  return q;
}

QueryRequest Request(Pattern q, RankingMetric metric, size_t k,
                     std::vector<std::string> terms = {},
                     MatchSemantics semantics = MatchSemantics::kBoundedSimulation) {
  QueryRequest r;
  r.pattern = std::move(q);
  r.metric = metric;
  r.top_k = k;
  r.topic_terms = std::move(terms);
  r.semantics = semantics;
  return r;
}

// The popular patterns. Selective conditions on every node keep result
// graphs, and so the ranking every cache hit recomputes, small.
Pattern ArchitectLead() { return BuildPattern({{"SA", 8}, {"SD", 6}}, {{0, 1, 2}}); }
Pattern ManagerTeam() {
  return BuildPattern({{"PM", 8}, {"BA", 4}, {"SD", 6}}, {{0, 1, 1}, {0, 2, 2}});
}
Pattern ArchitectTeam() {
  return BuildPattern({{"SA", 10}, {"SD", 6}, {"ST", 4}}, {{0, 1, 2}, {1, 2, 2}, {0, 2, 3}});
}
Pattern GraphDbArchitect() { return BuildPattern({{"SA", 6}, {"SD", 4}}, {{0, 1, 2}}); }
Pattern SeniorDeveloper() { return BuildPattern({{"SD", 12}, {"ST", 6}}, {{0, 1, 2}}); }

}  // namespace

std::string_view WorkloadName(Workload w) {
  switch (w) {
    case Workload::kHotRead:
      return "hot_read";
    case Workload::kColdRead:
      return "cold_read";
    case Workload::kWriteChurn:
      return "write_churn";
  }
  return "?";
}

std::optional<Workload> ParseWorkload(std::string_view name) {
  for (Workload w : kAllWorkloads) {
    if (WorkloadName(w) == name) return w;
  }
  return std::nullopt;
}

WorkloadSpec SpecFor(Workload w) {
  WorkloadSpec s;
  s.workload = w;
  switch (w) {
    case Workload::kHotRead:
      s.read_rate = 500.0;
      break;
    case Workload::kColdRead:
      s.read_rate = 350.0;
      s.popular_reads = false;
      break;
    case Workload::kWriteChurn:
      s.read_rate = 70.0;
      s.write_rate = 32.0;
      s.replicas = 2;
      s.maintained_queries = true;
      s.ryw_share = 0.25;
      break;
  }
  return s;
}

Graph MakeGraph() {
  gen::TwitterLikeConfig cfg;
  cfg.n = kGraphNodes;
  cfg.seed = kGraphSeed;
  cfg.labels = gen::TopicExpertiseModel();
  return gen::TwitterLike(cfg);
}

std::vector<QueryRequest> PopularSet() {
  using M = RankingMetric;
  std::vector<QueryRequest> set;
  set.push_back(Request(ArchitectLead(), M::kSocialImpact, 10));
  set.push_back(
      Request(SeniorDeveloper(), M::kTopicFusion, 10, {"distributed systems"}));
  set.push_back(Request(ManagerTeam(), M::kDegree, 10));
  set.push_back(Request(ArchitectTeam(), M::kSocialImpact, 10));
  set.push_back(Request(GraphDbArchitect(), M::kTopicFusion, 10, {"graph databases"}));
  set.push_back(Request(BuildPattern({{"UX", 8}, {"SD", 8}}, {{0, 1, 2}}),
                        M::kCloseness, 5));
  set.push_back(Request(BuildPattern({{"DBA", 6}, {"OPS", 0}}, {{0, 1, 2}}),
                        M::kSocialImpact, 10));
  set.push_back(Request(BuildPattern({{"OPS", 6}, {"DBA", 2}}, {{0, 1, 2}}),
                        M::kPageRank, 10));
  set.push_back(Request(BuildPattern({{"BA", 10}, {"SA", 4}}, {{0, 1, 3}}),
                        M::kSocialImpact, 10, {"machine learning"}));
  set.push_back(Request(BuildPattern({{"OPS", 2}, {"DBA", 2}}, {{0, 1, 2}}),
                        M::kTopicFusion, 5, {"site reliability"}));
  set.push_back(Request(BuildPattern({{"ST", 12}, {"SD", 8}}, {{0, 1, 2}}),
                        M::kDegree, 10));
  set.push_back(Request(BuildPattern({{"SA", 10}, {"SD", 10}}, {{0, 1, 2}}),
                        M::kSocialImpact, 10, {}, MatchSemantics::kDualSimulation));
  // Same patterns as above under another metric or k: cache hits that rank
  // differently.
  set.push_back(Request(ArchitectLead(), M::kDegree, 5));
  set.push_back(Request(ArchitectTeam(), M::kDegree, 20));
  set.push_back(Request(GraphDbArchitect(), M::kSocialImpact, 10, {"graph databases"}));
  set.push_back(Request(SeniorDeveloper(), M::kDegree, 5, {"distributed systems"}));
  return set;
}

std::vector<Pattern> MaintainedPatterns() { return {ArchitectLead(), ManagerTeam()}; }

std::vector<uint32_t> PopularDraws(uint64_t seed, size_t count) {
  Rng rng(seed ^ 0x706f70756c6172ULL);
  const uint64_t n = PopularSet().size();
  std::vector<uint32_t> draws(count);
  for (uint32_t& d : draws) d = static_cast<uint32_t>(rng.NextZipf(n, 1.0));
  return draws;
}

std::vector<QueryRequest> WarmupColdRequests() {
  return ColdRequests(kWarmupSeed, kWarmupColdReads, {});
}

std::vector<QueryRequest> ColdRequests(uint64_t seed, size_t count,
                                       const std::vector<QueryRequest>& exclude) {
  using M = RankingMetric;
  const gen::LabelModel model = gen::TopicExpertiseModel();
  Rng rng(seed ^ 0x636f6c64ULL);
  auto label = [&] { return model.labels[rng.NextBounded(model.labels.size())].c_str(); };
  auto collaborator_exp = [&] { return static_cast<int>(rng.NextInt(6, 12)); };
  auto bound = [&] { return static_cast<Distance>(rng.NextBool(0.2) ? 3 : rng.NextInt(1, 2)); };

  std::unordered_set<uint64_t> seen;
  for (const QueryRequest& r : exclude) seen.insert(QueryCacheKey(CompiledPattern(r), r.semantics));
  std::vector<QueryRequest> out;
  out.reserve(count);
  while (out.size() < count) {
    std::vector<NodeSpec> nodes = {{label(), static_cast<int>(rng.NextInt(10, 14))}};
    std::vector<EdgeSpec> edges;
    // Shapes cycle in a fixed order so every seed gets the same mix.
    switch (out.size() % 4) {
      case 0: {  // star: the expert and one to three collaborators
        const size_t children = 1 + rng.NextBounded(3);
        for (size_t c = 1; c <= children; ++c) {
          nodes.push_back({label(), collaborator_exp()});
          edges.push_back({0, static_cast<PatternNodeId>(c), bound()});
        }
        break;
      }
      case 1:  // chain
        nodes.push_back({label(), collaborator_exp()});
        nodes.push_back({label(), collaborator_exp()});
        edges = {{0, 1, bound()}, {1, 2, bound()}};
        break;
      case 2:  // mutual collaboration
        nodes.push_back({label(), collaborator_exp()});
        edges = {{0, 1, bound()}, {1, 0, bound()}};
        break;
      default:  // team triangle
        nodes.push_back({label(), collaborator_exp()});
        nodes.push_back({label(), collaborator_exp()});
        edges = {{0, 1, bound()}, {1, 2, bound()}, {0, 2, bound()}};
        break;
    }
    std::vector<std::string> terms;
    if (rng.NextBool(0.4)) terms.push_back(model.topics[rng.NextBounded(model.topics.size())]);
    const MatchSemantics semantics = rng.NextBool(0.2)
                                         ? MatchSemantics::kDualSimulation
                                         : MatchSemantics::kBoundedSimulation;
    static constexpr size_t kKs[] = {5, 10, 20};
    const size_t k = kKs[rng.NextBounded(3)];
    const double m = rng.NextDouble();
    M metric = m < 0.3 ? M::kSocialImpact : m < 0.75 ? M::kDegree : M::kPageRank;
    if (!terms.empty() && rng.NextBool(0.5)) metric = M::kTopicFusion;
    QueryRequest r =
        Request(BuildPattern(nodes, edges), metric, k, std::move(terms), semantics);
    if (seen.insert(QueryCacheKey(CompiledPattern(r), semantics)).second) {
      out.push_back(std::move(r));
    }
  }
  return out;
}

Pattern CompiledPattern(const QueryRequest& request) {
  return request.topic_terms.empty()
             ? request.pattern
             : CompileTopicTerms(request.pattern, request.topic_terms);
}

std::vector<UpdateBatch> MakeUpdateBatches(const Graph& g, size_t batches, uint64_t seed) {
  UpdateBatch stream = GenerateUpdateStream(g, batches * kBatchSize, 0.5, seed ^ 0x757064ULL);
  std::vector<UpdateBatch> out(batches);
  for (size_t i = 0; i < stream.size(); ++i) out[i / kBatchSize].push_back(stream[i]);
  return out;
}

bool WriteUpdates(const std::string& path, const std::vector<UpdateBatch>& batches) {
  std::ofstream f(path);
  for (const UpdateBatch& batch : batches) {
    for (const GraphUpdate& u : batch) {
      f << (u.kind == GraphUpdate::Kind::kInsertEdge ? 'i' : 'd') << ' ' << u.src << ' '
        << u.dst << '\n';
    }
    f << '\n';
  }
  return static_cast<bool>(f);
}

std::optional<std::vector<UpdateBatch>> ReadUpdates(const std::string& path) {
  std::ifstream f(path);
  if (!f) return std::nullopt;
  std::vector<UpdateBatch> batches(1);
  std::string line;
  while (std::getline(f, line)) {
    if (line.empty()) {
      batches.emplace_back();
      continue;
    }
    std::istringstream ls(line);
    char kind = 0;
    NodeId src = 0, dst = 0;
    if (!(ls >> kind >> src >> dst) || (kind != 'i' && kind != 'd')) return std::nullopt;
    batches.back().push_back(kind == 'i' ? GraphUpdate::Insert(src, dst)
                                         : GraphUpdate::Delete(src, dst));
  }
  batches.pop_back();  // after the last blank line
  return batches;
}

size_t BatchesNeeded(const WorkloadSpec& spec, double seconds) {
  return static_cast<size_t>(spec.write_rate * seconds) + kProbeWrites + 16;
}

}  // namespace loadbench
