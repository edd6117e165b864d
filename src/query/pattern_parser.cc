#include "src/query/pattern_parser.h"

#include <sstream>

#include "src/graph/graph_io.h"
#include "src/util/string_util.h"

namespace expfinder {

namespace {
Status ParseError(size_t line_no, const std::string& what) {
  return Status::Corruption("pattern parse error at line " + std::to_string(line_no) +
                            ": " + what);
}
}  // namespace

Result<Pattern> LoadPatternStream(std::istream& is) {
  Pattern p;
  std::string line;
  size_t line_no = 0;
  // Edges/output may reference nodes declared later; collect and resolve at
  // the end.
  struct PendingEdge {
    std::string src, dst;
    Distance bound;
    size_t line_no;
  };
  std::vector<PendingEdge> pending_edges;
  std::string output_name;
  size_t output_line = 0;

  while (std::getline(is, line)) {
    ++line_no;
    std::string_view sv = Trim(line);
    if (sv.empty() || sv.front() == '#') continue;
    auto tokens = TokenizeRespectingQuotes(sv);
    if (tokens.empty()) continue;
    const std::string& kind = tokens[0];
    if (kind == "node") {
      if (tokens.size() < 3) return ParseError(line_no, "node needs name and label");
      PatternNode n;
      n.name = tokens[1];
      if (tokens[2] == "*") {
        n.label.clear();
      } else {
        auto label = ParseAttrValue(tokens[2]);
        n.label = (label && label->is_string()) ? label->AsString() : tokens[2];
      }
      if ((tokens.size() - 3) % 3 != 0) {
        return ParseError(line_no, "conditions must come in (attr op value) triples");
      }
      for (size_t i = 3; i + 2 < tokens.size(); i += 3) {
        auto op = ParseCmpOp(tokens[i + 1]);
        if (!op) return ParseError(line_no, "unknown operator '" + tokens[i + 1] + "'");
        auto value = ParseAttrValue(tokens[i + 2]);
        if (!value) return ParseError(line_no, "bad value '" + tokens[i + 2] + "'");
        n.conditions.emplace_back(tokens[i], *op, *value);
      }
      auto res = p.AddNode(std::move(n));
      if (!res.ok()) return ParseError(line_no, res.status().message());
    } else if (kind == "edge") {
      if (tokens.size() < 3 || tokens.size() > 4) {
        return ParseError(line_no, "edge needs two node names and optional bound");
      }
      Distance bound = 1;
      if (tokens.size() == 4) {
        if (tokens[3] == "*") {
          bound = kUnboundedEdge;
        } else {
          // `*` is the only spelling of unbounded: a numeric bound must
          // fit below kUnboundedEdge.
          int64_t b;
          if (!ParseInt64(tokens[3], &b) || b < 1 || b >= kUnboundedEdge) {
            return ParseError(line_no, "bad bound '" + tokens[3] + "'");
          }
          bound = static_cast<Distance>(b);
        }
      }
      pending_edges.push_back({tokens[1], tokens[2], bound, line_no});
    } else if (kind == "output") {
      if (tokens.size() != 2) return ParseError(line_no, "output needs one node name");
      output_name = tokens[1];
      output_line = line_no;
    } else {
      return ParseError(line_no, "unknown directive '" + kind + "'");
    }
  }

  for (const auto& e : pending_edges) {
    auto src = p.FindNode(e.src);
    if (!src) return ParseError(e.line_no, "unknown node '" + e.src + "'");
    auto dst = p.FindNode(e.dst);
    if (!dst) return ParseError(e.line_no, "unknown node '" + e.dst + "'");
    Status st = p.AddEdge(*src, *dst, e.bound);
    if (!st.ok()) return ParseError(e.line_no, st.message());
  }
  if (!output_name.empty()) {
    auto out = p.FindNode(output_name);
    if (!out) return ParseError(output_line, "unknown output node '" + output_name + "'");
    EF_RETURN_NOT_OK(p.SetOutput(*out));
  }
  EF_RETURN_NOT_OK(p.Validate());
  return p;
}

Result<Pattern> ParsePatternText(std::string_view text) {
  std::istringstream is{std::string(text)};
  return LoadPatternStream(is);
}

}  // namespace expfinder
