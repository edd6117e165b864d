#include "src/index/topic_index.h"

#include <algorithm>

#include "src/graph/graph.h"
#include "src/util/string_util.h"

namespace expfinder {

namespace {

void EncodeVarint(uint32_t v, std::vector<uint8_t>* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

/// Sorted unique token strings of node `v`: label name + string attributes.
void NodeTokens(const Graph& g, NodeId v, std::vector<std::string>* out) {
  out->clear();
  AppendTopicTokens(g.NodeLabelName(v), out);
  for (const auto& [key, value] : g.Attrs(v)) {
    if (value.is_string()) AppendTopicTokens(value.AsString(), out);
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

}  // namespace

std::unique_ptr<TopicIndex> TopicIndex::Build(const Graph& g,
                                              const TopicIndexOptions& limits) {
  if (!limits.enabled) return nullptr;
  std::unique_ptr<TopicIndex> idx(new TopicIndex());
  const size_t n = g.NumNodes();
  idx->num_nodes_ = n;

  // Pass 1: forward index (per-node term ids, concatenated in node order),
  // interning tokens.
  std::vector<uint32_t> fwd_terms;
  std::vector<uint64_t> fwd_off(n + 1, 0);
  std::vector<std::string> tokens;
  for (NodeId v = 0; v < n; ++v) {
    NodeTokens(g, v, &tokens);
    if (fwd_terms.size() + tokens.size() > limits.max_total_postings) return nullptr;
    for (const std::string& t : tokens) fwd_terms.push_back(idx->terms_.Intern(t));
    fwd_off[v + 1] = fwd_terms.size();
  }
  const size_t total = fwd_terms.size();
  idx->total_postings_ = total;

  // Pass 2: invert by counting sort (stable in v, so postings come out
  // ascending per term), then delta + varint encode.
  const size_t nt = idx->terms_.size();
  idx->df_.assign(nt, 0);
  for (uint32_t t : fwd_terms) ++idx->df_[t];
  std::vector<uint64_t> pos(nt + 1, 0);
  for (size_t t = 0; t < nt; ++t) pos[t + 1] = pos[t] + idx->df_[t];
  std::vector<NodeId> bucket(total);
  {
    std::vector<uint64_t> cur(pos.begin(), pos.end() - 1);
    for (NodeId v = 0; v < n; ++v) {
      for (uint64_t i = fwd_off[v]; i < fwd_off[v + 1]; ++i) {
        bucket[cur[fwd_terms[i]]++] = v;
      }
    }
  }
  idx->off_.assign(nt + 1, 0);
  idx->blob_.reserve(total);  // >= 1 byte per posting
  for (size_t t = 0; t < nt; ++t) {
    idx->off_[t] = idx->blob_.size();
    NodeId prev = 0;
    for (uint64_t i = pos[t]; i < pos[t + 1]; ++i) {
      const NodeId v = bucket[i];
      EncodeVarint(i == pos[t] ? v : v - prev, &idx->blob_);
      prev = v;
    }
  }
  idx->off_[nt] = idx->blob_.size();
  return idx;
}

const TopicIndex* TopicIndexSlot::Get(const Graph& g, const TopicIndexOptions& limits,
                                      bool* built_now) const {
  if (built_now) *built_now = false;
  if (!limits.enabled) return nullptr;
  if (const TopicIndex* p = published_.load(std::memory_order_acquire)) {
    // The slot is replaced on every content mutation, so a published index
    // always describes the caller's graph.
    EF_DCHECK(p->NumNodes() == g.NumNodes());
    return p;
  }
  std::lock_guard<std::mutex> lock(mu_);
  touched_.store(true, std::memory_order_release);
  if (!limits_set_) {
    limits_ = limits;
    limits_set_ = true;
  } else if (!(limits_ == limits)) {
    return nullptr;  // first limits win; mismatched callers scan
  }
  if (index_ != nullptr) return index_.get();
  if (failed_) return nullptr;
  ++uses_;
  if (uses_ < limits.build_after_uses) return nullptr;
  std::unique_ptr<TopicIndex> built = TopicIndex::Build(g, limits);
  if (built == nullptr) {
    failed_ = true;  // over budget: memoize so we don't retry every query
    return nullptr;
  }
  index_ = std::move(built);
  published_.store(index_.get(), std::memory_order_release);
  if (built_now) *built_now = true;
  return index_.get();
}

bool HasTextPredicates(const Pattern& q) {
  for (PatternNodeId u = 0; u < q.NumNodes(); ++u) {
    for (const Condition& c : q.node(u).conditions) {
      if (!c.rhs().is_string()) continue;
      if (c.op() != CmpOp::kEq && c.op() != CmpOp::kHasToken) continue;
      if (!TopicTokens(c.rhs().AsString()).empty()) return true;
    }
  }
  return false;
}

Pattern CompileTopicTerms(const Pattern& q, const std::vector<std::string>& terms) {
  std::vector<std::string> tokens = SortedTopicTokens(terms);
  Pattern out = q;
  const std::optional<PatternNodeId> output = out.output_node();
  if (!output) return out;
  for (std::string& tok : tokens) {
    out.mutable_node(*output)->conditions.emplace_back("*", CmpOp::kHasToken,
                                                       AttrValue(std::move(tok)));
  }
  return out;
}

}  // namespace expfinder
