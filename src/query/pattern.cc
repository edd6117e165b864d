#include "src/query/pattern.h"

#include <algorithm>
#include <string>
#include <vector>

#include "src/util/string_util.h"

namespace expfinder {

bool PatternNode::Matches(const Graph& g, NodeId v) const {
  if (!label.empty() && g.NodeLabelName(v) != label) return false;
  for (const Condition& c : conditions) {
    if (c.is_any_attr()) {
      if (!AnyAttrSatisfies(g, v, c)) return false;
    } else if (!c.Eval(g.GetAttr(v, c.attr()))) {
      return false;
    }
  }
  return true;
}

Result<PatternNodeId> Pattern::AddNode(PatternNode node) {
  if (node.name.empty()) {
    return Status::InvalidArgument("pattern node needs a nonempty name");
  }
  if (FindNode(node.name)) {
    return Status::AlreadyExists("duplicate pattern node name '" + node.name + "'");
  }
  PatternNodeId id = static_cast<PatternNodeId>(nodes_.size());
  nodes_.push_back(std::move(node));
  out_.emplace_back();
  in_.emplace_back();
  return id;
}

Status Pattern::AddEdge(PatternNodeId src, PatternNodeId dst, Distance bound) {
  if (src >= nodes_.size() || dst >= nodes_.size()) {
    return Status::InvalidArgument("pattern edge endpoint out of range");
  }
  if (bound < 1) return Status::InvalidArgument("pattern edge bound must be >= 1");
  for (uint32_t e : out_[src]) {
    if (edges_[e].dst == dst) {
      return Status::AlreadyExists("duplicate pattern edge");
    }
  }
  uint32_t idx = static_cast<uint32_t>(edges_.size());
  edges_.push_back({src, dst, bound});
  out_[src].push_back(idx);
  in_[dst].push_back(idx);
  return Status::OK();
}

Status Pattern::SetOutput(PatternNodeId u) {
  if (u >= nodes_.size()) return Status::InvalidArgument("output node out of range");
  output_ = u;
  return Status::OK();
}

std::optional<PatternNodeId> Pattern::FindNode(std::string_view name) const {
  for (PatternNodeId i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].name == name) return i;
  }
  return std::nullopt;
}

Distance Pattern::MaxOutBound(PatternNodeId u) const {
  Distance best = 0;
  for (uint32_t e : out_[u]) best = std::max(best, edges_[e].bound);
  return best;
}

Distance Pattern::MaxBound() const {
  Distance best = 0;
  for (const auto& e : edges_) best = std::max(best, e.bound);
  return best;
}

Distance Pattern::MaxFiniteBound() const {
  Distance best = 0;
  for (const auto& e : edges_) {
    if (e.bound != kUnboundedEdge) best = std::max(best, e.bound);
  }
  return best;
}

bool Pattern::IsSimulationPattern() const {
  return std::all_of(edges_.begin(), edges_.end(),
                     [](const PatternEdge& e) { return e.bound == 1; });
}

Status Pattern::Validate() const {
  if (nodes_.empty()) return Status::InvalidArgument("pattern has no nodes");
  if (!output_) return Status::InvalidArgument("pattern output node not set");
  return Status::OK();
}

std::string Pattern::ToText() const { return Render(/*canonical=*/false); }

uint64_t Pattern::CanonicalFingerprint() const { return Fnv1a(Render(/*canonical=*/true)); }

std::string Pattern::Render(bool canonical) const {
  std::string text =
      canonical ? "# expfinder pattern v1 canonical\n" : "# expfinder pattern v1\n";
  std::vector<std::string> conditions;
  for (const PatternNode& n : nodes_) {
    text += "node ";
    text += n.name;
    if (n.label.empty()) {
      text += " *";
    } else {
      text += " \"";
      text += EscapeQuoted(n.label);
      text += '"';
    }
    conditions.clear();
    for (const Condition& c : n.conditions) conditions.push_back(c.ToString());
    if (canonical) {
      // A node's conditions are one conjunction: order and duplicates never
      // change its matches, so neither may they change the cache identity.
      std::sort(conditions.begin(), conditions.end());
      conditions.erase(std::unique(conditions.begin(), conditions.end()),
                       conditions.end());
    }
    for (const std::string& c : conditions) {
      text += ' ';
      text += c;
    }
    text += '\n';
  }
  for (const PatternEdge& e : edges_) {
    text += "edge ";
    text += nodes_[e.src].name;
    text += ' ';
    text += nodes_[e.dst].name;
    text += ' ';
    text += e.bound == kUnboundedEdge ? "*" : std::to_string(e.bound);
    text += '\n';
  }
  if (output_) {
    text += "output ";
    text += nodes_[*output_].name;
    text += '\n';
  }
  return text;
}

PatternBuilder::NodeRef& PatternBuilder::NodeRef::Where(std::string attr, CmpOp op,
                                                        AttrValue rhs) {
  builder_->pattern_.mutable_node(index_)->conditions.emplace_back(std::move(attr), op,
                                                                   std::move(rhs));
  return *this;
}

PatternBuilder::NodeRef& PatternBuilder::NodeRef::Output() {
  Status st = builder_->pattern_.SetOutput(index_);
  if (!st.ok() && builder_->first_error_.ok()) builder_->first_error_ = st;
  return *this;
}

PatternBuilder::NodeRef PatternBuilder::Node(std::string_view label,
                                             std::string_view name) {
  PatternNode n;
  n.label = std::string(label);
  n.name = name.empty() ? "n" + std::to_string(pattern_.NumNodes()) : std::string(name);
  auto res = pattern_.AddNode(std::move(n));
  if (!res.ok()) {
    if (first_error_.ok()) first_error_ = res.status();
    return NodeRef(this, 0);
  }
  return NodeRef(this, res.value());
}

PatternBuilder& PatternBuilder::Edge(const NodeRef& src, const NodeRef& dst,
                                     Distance bound) {
  Status st = pattern_.AddEdge(src.index(), dst.index(), bound);
  if (!st.ok() && first_error_.ok()) first_error_ = st;
  return *this;
}

Result<Pattern> PatternBuilder::Build() {
  if (!first_error_.ok()) return first_error_;
  EF_RETURN_NOT_OK(pattern_.Validate());
  return pattern_;
}

}  // namespace expfinder
