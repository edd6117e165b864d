#include "src/engine/query_engine.h"

namespace expfinder {

QueryEngine::QueryEngine(Graph* g, EngineOptions options)
    : g_(g), options_(std::move(options)) {
  if (options_.use_compression) {
    Status st = CompressNow();
    EF_CHECK(st.ok()) << "initial compression failed: " << st;
  }
}

Status QueryEngine::CompressNow() {
  if (compression_ != nullptr &&
      compression_->current().source_version() == g_->version()) {
    return Status::OK();
  }
  if (compression_ == nullptr) {
    auto mc = MaintainedCompression::Create(g_, options_.compression_schema);
    if (!mc.ok()) return mc.status();
    compression_ = std::make_unique<MaintainedCompression>(std::move(mc).value());
  } else {
    compression_->Rebuild();
  }
  BumpEngineSeq();
  return Status::OK();
}

const CompressedGraph* QueryEngine::compressed() const {
  return compression_ ? &compression_->current() : nullptr;
}

std::shared_ptr<const EngineSnapshot> QueryEngine::Publish() {
  if (published_ != nullptr && published_->engine_seq == engine_seq_ &&
      published_->version == g_->version()) {
    return published_;
  }
  auto next = std::make_shared<EngineSnapshot>();
  // Reuse the published graph handle when the graph itself didn't change
  // (e.g. a republish owed to RegisterMaintainedQuery): no copy, no CSR
  // chunks, and the shared ball index stays warm.
  if (published_ != nullptr && published_->graph->uid() == g_->uid() &&
      published_->graph->version() == g_->version()) {
    next->graph = published_->graph;
  } else {
    next->graph = g_->Publish();
  }
  if (options_.use_compression && compression_ != nullptr &&
      compression_->current().source_version() == g_->version()) {
    // Freeze the compressed view only when it is current — the snapshot
    // then needs no version check at evaluation time. The frozen handles
    // are reused across publishes while the view is unchanged.
    const CompressedGraph& cg = compression_->current();
    if (published_ != nullptr && published_->compressed != nullptr &&
        published_->compressed->source_version() == cg.source_version() &&
        published_->compressed_graph->uid() == cg.gc().uid() &&
        published_->compressed_graph->version() == cg.gc().version()) {
      next->compressed = published_->compressed;
      next->compressed_graph = published_->compressed_graph;
    } else {
      // Capture before copying: the copy would seal the pages itself, and
      // the chunks it built would go uncounted.
      next->compressed_graph = cg.gc().Publish();
      next->compressed = std::make_shared<const CompressedGraph>(cg);
    }
  }
  next->maintained.reserve(maintained_.size());
  for (const auto& [key, inc] : maintained_) next->maintained.emplace(key, inc.Snapshot());
  next->version = g_->version();
  next->engine_seq = engine_seq_;
  published_ = std::move(next);
  return published_;
}

Result<NodeId> QueryEngine::AddNode(
    std::string_view label,
    const std::vector<std::pair<std::string, AttrValue>>& attrs) {
  NodeId v = g_->AddNode(label);
  for (const auto& [key, value] : attrs) g_->SetAttr(v, key, value);
  for (auto& [key, inc] : maintained_) inc.OnNodeAdded(v);
  if (compression_ != nullptr) compression_->OnNodeAdded(v);
  BumpEngineSeq();
  return v;
}

Status QueryEngine::RegisterMaintainedQuery(const Pattern& q,
                                            MatchSemantics semantics) {
  EF_RETURN_NOT_OK(q.Validate());
  uint64_t key = QueryCacheKey(q, semantics);
  if (maintained_.count(key)) {
    return Status::AlreadyExists("query already maintained");
  }
  // The maintainer seeds its initial candidates by a label scan: it runs
  // once per registered query, and the graph's topic index would be built
  // for it alone.
  maintained_.try_emplace(key, g_, q, MatchOptions{}, semantics);
  BumpEngineSeq();
  return Status::OK();
}

bool QueryEngine::IsMaintained(const Pattern& q, MatchSemantics semantics) const {
  return maintained_.count(QueryCacheKey(q, semantics)) > 0;
}

Status QueryEngine::ApplyUpdates(const UpdateBatch& batch) {
  EF_RETURN_NOT_OK(ValidateBatch(*g_, batch));
  // The maintainer Pre/PostUpdate pair is the first half of the snapshot
  // transition; the second half is the next Publish(), which freezes the
  // post-update state into the successor snapshot readers will pin.
  for (auto& [key, inc] : maintained_) inc.PreUpdate(batch);
  EF_RETURN_NOT_OK(ApplyBatch(g_, batch));
  for (auto& [key, inc] : maintained_) inc.PostUpdate(batch);
  if (compression_ != nullptr) compression_->OnGraphUpdated(batch);
  BumpEngineSeq();
  return Status::OK();
}

}  // namespace expfinder
