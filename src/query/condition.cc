#include "src/query/condition.h"

#include <algorithm>
#include <cstdint>

#include "src/graph/graph.h"
#include "src/util/string_util.h"

namespace expfinder {

namespace {

/// True when every token of `need` (sorted, unique, normalized) occurs among
/// the topic tokens of `s`. Streams the maximal alnum runs of `s` without
/// materializing them, tracking matches in a bitmask; conditions with more
/// than 64 tokens (never produced by the topic layer) take the tokenizing
/// path.
bool HasAllTopicTokens(std::string_view s, const std::vector<std::string>& need) {
  if (need.size() > 64) {
    const std::vector<std::string> have = TopicTokens(s);
    for (const std::string& t : need) {
      if (std::find(have.begin(), have.end(), t) == have.end()) return false;
    }
    return true;
  }
  const uint64_t all =
      need.size() == 64 ? ~uint64_t{0} : (uint64_t{1} << need.size()) - 1;
  uint64_t matched = 0;
  ForEachTopicTokenHit(s, need, [&](size_t i) {
    matched |= uint64_t{1} << i;
    return matched != all;
  });
  return matched == all;
}

}  // namespace

Condition::Condition(std::string attr, CmpOp op, AttrValue rhs)
    : attr_(std::move(attr)), op_(op), rhs_(std::move(rhs)) {
  if (op_ == CmpOp::kHasToken && rhs_.is_string()) {
    rhs_tokens_ = TopicTokens(rhs_.AsString());
    std::sort(rhs_tokens_.begin(), rhs_tokens_.end());
    rhs_tokens_.erase(std::unique(rhs_tokens_.begin(), rhs_tokens_.end()),
                      rhs_tokens_.end());
  }
}

std::string_view CmpOpToken(CmpOp op) {
  switch (op) {
    case CmpOp::kEq: return "==";
    case CmpOp::kNe: return "!=";
    case CmpOp::kLt: return "<";
    case CmpOp::kLe: return "<=";
    case CmpOp::kGt: return ">";
    case CmpOp::kGe: return ">=";
    case CmpOp::kContains: return "contains";
    case CmpOp::kHasToken: return "has_token";
  }
  return "?";
}

std::optional<CmpOp> ParseCmpOp(std::string_view token) {
  if (token == "==") return CmpOp::kEq;
  if (token == "!=") return CmpOp::kNe;
  if (token == "<") return CmpOp::kLt;
  if (token == "<=") return CmpOp::kLe;
  if (token == ">") return CmpOp::kGt;
  if (token == ">=") return CmpOp::kGe;
  if (token == "contains") return CmpOp::kContains;
  if (token == "has_token") return CmpOp::kHasToken;
  return std::nullopt;
}

bool Condition::Eval(const AttrValue* lhs) const {
  if (lhs == nullptr) return false;
  switch (op_) {
    case CmpOp::kEq:
      return lhs->Equals(rhs_);
    case CmpOp::kNe:
      return !lhs->Equals(rhs_);
    case CmpOp::kLt:
    case CmpOp::kLe:
    case CmpOp::kGt:
    case CmpOp::kGe: {
      auto c = lhs->Compare(rhs_);
      if (!c) return false;
      switch (op_) {
        case CmpOp::kLt: return *c < 0;
        case CmpOp::kLe: return *c <= 0;
        case CmpOp::kGt: return *c > 0;
        default: return *c >= 0;
      }
    }
    case CmpOp::kContains:
      if (!lhs->is_string() || !rhs_.is_string()) return false;
      return lhs->AsString().find(rhs_.AsString()) != std::string::npos;
    case CmpOp::kHasToken: {
      if (!lhs->is_string()) return false;
      // Non-string or tokenless constants match nothing (rhs_tokens_ is only
      // populated for string constants with >= 1 token).
      if (rhs_tokens_.empty()) return false;
      return HasAllTopicTokens(lhs->AsString(), rhs_tokens_);
    }
  }
  return false;
}

bool AnyAttrSatisfies(const Graph& g, NodeId v, const Condition& c) {
  const AttrValue label(g.NodeLabelName(v));
  if (c.Eval(&label)) return true;
  for (const auto& [key, value] : g.Attrs(v)) {
    if (c.Eval(&value)) return true;
  }
  return false;
}

std::string Condition::ToString() const {
  std::string out = attr_;
  out += " ";
  out += CmpOpToken(op_);
  out += " ";
  out += rhs_.Serialize();
  return out;
}

}  // namespace expfinder
