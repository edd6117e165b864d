#include "replay.h"

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <utility>

namespace loadbench {

using namespace expfinder;

namespace {

/// Versions between two timed ball-index builds (each build is O(n)).
constexpr size_t kBallBuildSampleEvery = 50;
constexpr size_t kMaxMismatchExamples = 5;

/// Bytes of WAL segment files ("wal-*.log") under `dir`.
size_t WalBytes(const std::string& dir) {
  size_t total = 0;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    if (e.path().filename().string().rfind("wal-", 0) == 0) total += e.file_size(ec);
  }
  return total;
}

const char* RankingSpan(RankingMetric metric) {
  switch (metric) {
    case RankingMetric::kSocialImpact:
      return "ranking.social_impact";
    case RankingMetric::kTopicFusion:
      return "ranking.topic_fusion";
    default:
      return "ranking.other";
  }
}

class Replayer {
 public:
  Replayer(const WorkloadSpec& spec, const LiveInputs& inputs, const LiveResult& live,
           Tracer* tracer)
      : spec_(spec), inputs_(inputs), live_(live), tracer_(tracer),
        traced_(tracer->enabled()), planner_(true) {
    engine_options_.use_cache = false;
    engine_options_.match_threads = 1;
  }

  ReplayResult Run(const std::string& store_dir);

 private:
  struct Served {
    std::shared_ptr<const QueryAnswer> answer;
    uint64_t relation_fp = 0;
  };

  Status Open(const std::string& store_dir);
  void Warm();
  void ReplayWrite(const WriteRecord& w, uint64_t id);
  /// Replays one read at the current version, taking the path the service
  /// reported when `follow` (the traced replay), else evaluating directly.
  void ReplayRead(const ReadRecord& r, uint64_t id, bool follow);
  std::shared_ptr<const QueryAnswer> Evaluate(const Pattern& q, MatchSemantics semantics,
                                              uint64_t id, Tracer* tracer);
  void Check(bool ok, const std::string& what) { out_.Check(ok, what); }

  const WorkloadSpec& spec_;
  const LiveInputs& inputs_;
  const LiveResult& live_;
  Tracer* tracer_;
  const bool traced_;
  Tracer untraced_{false};
  EngineOptions engine_options_;
  Planner planner_;

  Graph graph_;
  std::unique_ptr<DurableGraph> durable_;
  std::unique_ptr<QueryEngine> engine_;
  std::shared_ptr<const EngineSnapshot> snap_;
  bool snap_stale_ = false;
  /// Standalone maintainers, each over its own copy of the graph, so
  /// IncrementalBoundedSimulation::ApplyBatch is timed on its own.
  std::vector<std::unique_ptr<Graph>> shadow_graphs_;
  std::vector<std::unique_ptr<IncrementalBoundedSimulation>> maintainers_;
  std::unique_ptr<Replica> replica_;
  MatchContext ctx_;
  std::string store_dir_;
  Distance ball_depth_ = 1;
  size_t versions_ = 0;
  /// Answers computed at the current version, by cache key.
  std::map<uint64_t, Served> answers_;
  ReplayResult out_;
};

Status Replayer::Open(const std::string& store_dir) {
  store_dir_ = store_dir;
  DurabilityOptions options;
  options.dir = store_dir;
  options.fsync_policy = FsyncPolicy::kEveryRecord;
  GraphRecoveryInfo info;
  {
    Tracer::Scope s(tracer_, "storage.recover", 0);
    auto durable = DurableGraph::Open(options, &graph_, &info);
    if (!durable.ok()) return durable.status();
    durable_ = std::move(durable).value();
  }
  if (spec_.replicas > 0 && traced_) {
    Tracer::Scope s(tracer_, "replication.bootstrap", 0);
    auto bootstrap = LoadReplicaBootstrap(store_dir, nullptr);
    if (!bootstrap.ok()) return bootstrap.status();
    replica_ = std::make_unique<Replica>(0, engine_options_);
    replica_->Install(std::move(bootstrap).value());
  }
  if (traced_) {
    Tracer::Scope s(tracer_, "index.topic_build", 0);
    TopicIndex::Build(graph_, engine_options_.topic_index);
  }
  engine_ = std::make_unique<QueryEngine>(&graph_, engine_options_);
  if (spec_.maintained_queries) {
    MatchOptions match_options;
    match_options.ball_index = engine_options_.ball_index;
    for (const Pattern& q : MaintainedPatterns()) {
      EF_RETURN_NOT_OK(engine_->RegisterMaintainedQuery(q));
      if (!traced_) continue;
      shadow_graphs_.push_back(std::make_unique<Graph>(graph_));
      maintainers_.push_back(std::make_unique<IncrementalBoundedSimulation>(
          shadow_graphs_.back().get(), q, match_options));
    }
  }
  for (const QueryRequest& r : inputs_.requests) {
    ball_depth_ = std::max(ball_depth_, r.pattern.MaxFiniteBound());
  }
  ball_depth_ = std::min(ball_depth_, engine_options_.ball_index.max_depth);
  Tracer::Scope s(tracer_, "engine.publish", 0);
  snap_ = engine_->Publish();
  return Status::OK();
}

void Replayer::Warm() {
  // The service ran this list before timing; running it here too gives the
  // replay's snapshot the same lazily built indexes.
  for (const QueryRequest& r : inputs_.warmup) {
    Evaluate(CompiledPattern(r), r.semantics, 0, &untraced_);
  }
}

std::shared_ptr<const QueryAnswer> Replayer::Evaluate(const Pattern& q,
                                                      MatchSemantics semantics,
                                                      uint64_t id, Tracer* tracer) {
  EvalPlan plan;
  {
    Tracer::Scope s(tracer, "engine.plan", id);
    plan = planner_.Plan(snap_->graph->graph(), q);
  }
  MatchOptions& opts = plan.match_options;
  opts.num_threads = engine_options_.match_threads;
  opts.ball_index = engine_options_.ball_index;
  opts.topic_index = engine_options_.topic_index;
  MatchRelation relation(q.NumNodes());
  ctx_.BindSnapshot(snap_->graph);
  if (!plan.provably_empty) {
    const size_t hits0 = ctx_.ball_hits(), falls0 = ctx_.bfs_fallbacks();
    {
      Tracer::Scope s(tracer, "matching.seed", id);
      CandidateSets c = ComputeCandidates(snap_->graph->graph(), q, opts, &ctx_);
      s.Close();
      for (const auto& list : c.list) out_.seeded_candidates += list.size();
    }
    Tracer::Scope s(tracer, "matching.match", id);
    if (semantics == MatchSemantics::kDualSimulation) {
      relation = ComputeDualSimulation(snap_->graph, q, opts, &ctx_);
    } else if (q.IsSimulationPattern()) {
      relation = ComputeSimulation(snap_->graph, q, opts, &ctx_);
    } else {
      relation = ComputeBoundedSimulation(snap_->graph, q, opts, &ctx_);
    }
    s.Close();
    out_.kept_pairs += relation.TotalPairs();
    out_.ball_hits += ctx_.ball_hits() - hits0;
    out_.bfs_fallbacks += ctx_.bfs_fallbacks() - falls0;
  }
  Tracer::Scope s(tracer, "matching.result_graph", id);
  ResultGraph rg(snap_->graph, q, relation, &ctx_);
  return std::make_shared<const QueryAnswer>(QueryAnswer{std::move(relation), std::move(rg)});
}

void Replayer::ReplayRead(const ReadRecord& r, uint64_t id, bool follow) {
  const QueryRequest& request = inputs_.requests[r.spec];
  Tracer::Scope root(tracer_, "replay.read", id);
  Pattern q;
  uint64_t key = 0;
  {
    Tracer::Scope s(tracer_, "query.compile", id);
    q = CompiledPattern(request);
    key = QueryCacheKey(q, request.semantics);
  }
  auto it = answers_.find(key);
  if (!follow || r.path != ServingPath::kCache || it == answers_.end()) {
    std::shared_ptr<const QueryAnswer> answer;
    const MatchRelation* maintained = snap_->Maintained(key);
    if (follow && r.path == ServingPath::kMaintained && maintained != nullptr) {
      MatchRelation relation = *maintained;
      Tracer::Scope s(tracer_, "matching.result_graph", id);
      ResultGraph rg(snap_->graph, q, relation, &ctx_);
      answer = std::make_shared<const QueryAnswer>(
          QueryAnswer{std::move(relation), std::move(rg)});
    } else {
      // A cache hit whose entry was filled before the replay began (during
      // warm-up) is evaluated once, untraced, like the fill it stands for.
      Tracer* t = follow && r.path == ServingPath::kCache ? &untraced_ : tracer_;
      answer = Evaluate(q, request.semantics, id, t);
    }
    it = answers_.insert_or_assign(key, Served{answer, RelationFingerprint(answer->matches)})
             .first;
  }
  const QueryAnswer& answer = *it->second.answer;
  Tracer::Scope rank(tracer_, RankingSpan(request.metric), id);
  Result<std::vector<RankedMatch>> ranked =
      request.metric == RankingMetric::kTopicFusion
          ? TopKTopicFusion(answer.result_graph, q, snap_->graph->graph(),
                            request.topic_terms, *request.top_k)
          : TopKMatchesWith(answer.result_graph, q, *request.top_k, request.metric);
  rank.Close();
  out_.result_nodes.push_back(static_cast<double>(answer.result_graph.NumNodes()));
  const bool same = ranked.ok() && it->second.relation_fp == r.relation_fp &&
                    RankedFingerprint(*ranked) == r.ranked_fp;
  Check(same, "read " + std::to_string(id) + " (request " + std::to_string(r.spec) +
                  ", version " + std::to_string(r.version) + ", path " +
                  std::string(ServingPathName(r.path)) + ") differs from the replay");
}

void Replayer::ReplayWrite(const WriteRecord& w, uint64_t id) {
  const UpdateBatch& batch = inputs_.batches[w.batch];
  Tracer::Scope root(tracer_, "replay.write", id);
  if (traced_) {
    const size_t before = WalBytes(store_dir_);
    Tracer::Scope s(tracer_, "storage.log", id);
    Status st = durable_->LogBatch(batch);
    s.Close();
    Check(st.ok(), "replayed WAL append failed: " + st.ToString());
    out_.wal_bytes += WalBytes(store_dir_) - before;
    out_.updates_logged += batch.size();
  }
  {
    Tracer::Scope s(tracer_, "engine.apply_updates", id);
    Status st = engine_->ApplyUpdates(batch);
    s.Close();
    Check(st.ok(), "replayed batch " + std::to_string(w.batch) + " failed: " + st.ToString());
  }
  for (auto& m : maintainers_) {
    Tracer::Scope s(tracer_, "incremental.maintain", id);
    auto delta = m->ApplyBatch(batch);
    s.Close();
    Check(delta.ok(), "standalone maintainer rejected batch " + std::to_string(w.batch));
  }
  Check(graph_.version() == w.version,
        "write " + std::to_string(w.batch) + " reached version " +
            std::to_string(graph_.version()) + ", service acknowledged " +
            std::to_string(w.version));
  answers_.clear();
  snap_stale_ = true;
  if (!traced_) return;  // publish lazily, only for versions a read needs

  {
    Tracer::Scope s(tracer_, "engine.publish", id);
    snap_ = engine_->Publish();
    snap_stale_ = false;
  }
  for (size_t i = 0; i < maintainers_.size(); ++i) {
    const MatchRelation* served = snap_->Maintained(
        QueryCacheKey(maintainers_[i]->pattern(), MatchSemantics::kBoundedSimulation));
    Check(served != nullptr && *served == maintainers_[i]->Snapshot(),
          "maintained relation diverged from its standalone maintainer");
  }
  {
    Tracer::Scope s(tracer_, "graph.capture", id);
    auto capture = GraphSnapshot::Capture(graph_);
    s.Close();
    if (versions_++ % kBallBuildSampleEvery == 0) {
      BallIndexOptions eager = engine_options_.ball_index;
      eager.build_after_uses = 1;
      bool built = false;
      Tracer::Scope b(tracer_, "graph.ball_build", id);
      capture->BallIndex(ball_depth_, eager, nullptr, 1, &built);
    }
  }
  if (replica_ != nullptr) {
    DeltaBatch deltas;
    deltas.deltas.push_back(Delta{durable_->next_lsn() - 1, DurableGraph::EncodeBatch(batch)});
    Tracer::Scope s(tracer_, "replication.apply", id);
    Status st = replica_->Apply(deltas);
    s.Close();
    Check(st.ok() && replica_->version() == w.version,
          "replica apply diverged at batch " + std::to_string(w.batch));
  }
  if (durable_->CheckpointDue()) {
    Tracer::Scope s(tracer_, "storage.checkpoint", id);
    Status st = durable_->Checkpoint(graph_, durable_->next_lsn());
    s.Close();
    Check(st.ok(), "replayed checkpoint failed: " + st.ToString());
    ++out_.checkpoints;
  }
}

ReplayResult Replayer::Run(const std::string& store_dir) {
  if (Status st = Open(store_dir); !st.ok()) {
    Check(false, "replay could not open its store: " + st.ToString());
    return out_;
  }
  Warm();
  if (traced_) {
    // One eager ball-index build of the starting version, timed.
    auto capture = GraphSnapshot::Capture(graph_);
    BallIndexOptions eager = engine_options_.ball_index;
    eager.build_after_uses = 1;
    bool built = false;
    Tracer::Scope s(tracer_, "graph.ball_build", 0);
    capture->BallIndex(ball_depth_, eager, nullptr, 1, &built);
  }

  // Reads ordered by the version they reported, writes in acknowledgement
  // order; a read replays once the replay reaches its version.
  std::vector<size_t> reads;
  for (size_t i = 0; i < live_.reads.size(); ++i) {
    if (live_.reads[i].code == StatusCode::kOk) reads.push_back(i);
  }
  std::stable_sort(reads.begin(), reads.end(), [&](size_t a, size_t b) {
    return live_.reads[a].version < live_.reads[b].version;
  });
  // Untraced: one replay per distinct (request, version); the other reads
  // of that pair are checked against it.
  std::map<std::pair<uint32_t, uint64_t>, std::pair<uint64_t, uint64_t>> verified;
  size_t next = 0;
  auto replay_reads_at_current_version = [&] {
    for (; next < reads.size() && live_.reads[reads[next]].version <= graph_.version();
         ++next) {
      const size_t i = reads[next];
      const ReadRecord& r = live_.reads[i];
      if (r.version < graph_.version()) {
        Check(false, "read " + std::to_string(i) + " reported version " +
                         std::to_string(r.version) + ", which no write produced");
        continue;
      }
      if (snap_stale_) {
        snap_ = engine_->Publish();
        snap_stale_ = false;
      }
      if (!traced_) {
        auto [it, fresh] = verified.try_emplace({r.spec, r.version});
        if (!fresh) {
          Check(it->second == std::make_pair(r.relation_fp, r.ranked_fp),
                "read " + std::to_string(i) + " differs from an equal read");
          continue;
        }
        it->second = {r.relation_fp, r.ranked_fp};
      }
      ReplayRead(r, i, traced_);
    }
  };
  uint64_t version = graph_.version();
  for (size_t j = 0; j < live_.writes.size(); ++j) {
    const WriteRecord& w = live_.writes[j];
    if (w.code != StatusCode::kOk && w.version == version) continue;  // not applied
    replay_reads_at_current_version();
    ReplayWrite(w, live_.reads.size() + j);
    version = w.version;
  }
  replay_reads_at_current_version();
  for (; next < reads.size(); ++next) {
    Check(false, "read " + std::to_string(reads[next]) + " reported version " +
                     std::to_string(live_.reads[reads[next]].version) +
                     " beyond the last write");
  }
  return out_;
}

}  // namespace

void ReplayResult::Check(bool ok, const std::string& what) {
  ++checks;
  if (ok) return;
  ++mismatches;
  if (mismatch_examples.size() < kMaxMismatchExamples) mismatch_examples.push_back(what);
}

ReplayResult Replay(const WorkloadSpec& spec, const LiveInputs& inputs,
                    const LiveResult& live, const std::string& store_dir, Tracer* tracer) {
  Replayer replayer(spec, inputs, live, tracer);
  return replayer.Run(store_dir);
}

}  // namespace loadbench
