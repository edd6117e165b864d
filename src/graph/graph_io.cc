#include "src/graph/graph_io.h"

#include <sstream>

#include "src/util/string_util.h"

namespace expfinder {

namespace {
constexpr std::string_view kHeader = "# expfinder graph v1";

Status ParseError(size_t line_no, const std::string& what) {
  return Status::Corruption("graph parse error at line " + std::to_string(line_no) +
                            ": " + what);
}
}  // namespace

std::vector<std::string> TokenizeRespectingQuotes(std::string_view line) {
  std::vector<std::string> tokens;
  std::string cur;
  bool in_quotes = false;
  bool have_token = false;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (in_quotes) {
      cur.push_back(c);
      if (c == '\\' && i + 1 < line.size()) {
        cur.push_back(line[++i]);
      } else if (c == '"') {
        in_quotes = false;
      }
      continue;
    }
    if (c == '"') {
      in_quotes = true;
      cur.push_back(c);
      have_token = true;
    } else if (std::isspace(static_cast<unsigned char>(c))) {
      if (have_token) {
        tokens.push_back(cur);
        cur.clear();
        have_token = false;
      }
    } else {
      cur.push_back(c);
      have_token = true;
    }
  }
  if (have_token) tokens.push_back(cur);
  return tokens;
}

Status SaveGraphText(const Graph& g, std::ostream& os) {
  os << kHeader << "\n";
  os << "nodes " << g.NumNodes() << "\n";
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    os << "node " << v << " \"" << EscapeQuoted(g.NodeLabelName(v)) << "\"";
    for (const auto& [key, value] : g.Attrs(v)) {
      os << " " << g.AttrKeyName(key) << "=" << value.Serialize();
    }
    os << "\n";
  }
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    for (NodeId w : g.OutNeighbors(v)) {
      os << "edge " << v << " " << w << "\n";
    }
  }
  if (!os.good()) return Status::IOError("stream write failed");
  return Status::OK();
}

Result<Graph> LoadGraphText(std::istream& is) {
  Graph g;
  std::string line;
  size_t line_no = 0;
  bool saw_nodes = false;
  size_t declared_nodes = 0;
  while (std::getline(is, line)) {
    ++line_no;
    std::string_view sv = Trim(line);
    if (sv.empty() || sv.front() == '#') continue;
    auto tokens = TokenizeRespectingQuotes(sv);
    if (tokens.empty()) continue;
    const std::string& kind = tokens[0];
    if (kind == "nodes") {
      if (tokens.size() != 2) return ParseError(line_no, "nodes line needs one count");
      int64_t n;
      if (!ParseInt64(tokens[1], &n) || n < 0) {
        return ParseError(line_no, "bad node count '" + tokens[1] + "'");
      }
      declared_nodes = static_cast<size_t>(n);
      saw_nodes = true;
    } else if (kind == "node") {
      if (tokens.size() < 3) return ParseError(line_no, "node line needs id and label");
      int64_t id;
      if (!ParseInt64(tokens[1], &id)) {
        return ParseError(line_no, "bad node id '" + tokens[1] + "'");
      }
      if (static_cast<size_t>(id) != g.NumNodes()) {
        return ParseError(line_no, "node ids must be dense and in order; expected " +
                                       std::to_string(g.NumNodes()));
      }
      auto label = ParseAttrValue(tokens[2]);
      std::string label_str;
      if (label && label->is_string()) {
        label_str = label->AsString();
      } else {
        label_str = tokens[2];  // bare unquoted label token
      }
      NodeId v = g.AddNode(label_str);
      for (size_t i = 3; i < tokens.size(); ++i) {
        size_t eq = tokens[i].find('=');
        if (eq == std::string::npos || eq == 0) {
          return ParseError(line_no, "bad attribute '" + tokens[i] + "'");
        }
        std::string key = tokens[i].substr(0, eq);
        auto value = ParseAttrValue(std::string_view(tokens[i]).substr(eq + 1));
        if (!value) {
          return ParseError(line_no, "bad attribute value in '" + tokens[i] + "'");
        }
        g.SetAttr(v, key, *value);
      }
    } else if (kind == "edge") {
      if (tokens.size() != 3) return ParseError(line_no, "edge line needs two endpoints");
      int64_t a, b;
      if (!ParseInt64(tokens[1], &a) || !ParseInt64(tokens[2], &b)) {
        return ParseError(line_no, "bad edge endpoints");
      }
      if (a < 0 || b < 0 || static_cast<size_t>(a) >= g.NumNodes() ||
          static_cast<size_t>(b) >= g.NumNodes()) {
        return ParseError(line_no, "edge endpoint out of range");
      }
      Status st = g.AddEdge(static_cast<NodeId>(a), static_cast<NodeId>(b));
      if (!st.ok()) return ParseError(line_no, st.message());
    } else {
      return ParseError(line_no, "unknown directive '" + kind + "'");
    }
  }
  if (saw_nodes && declared_nodes != g.NumNodes()) {
    return Status::Corruption("declared " + std::to_string(declared_nodes) +
                              " nodes but found " + std::to_string(g.NumNodes()));
  }
  return g;
}

}  // namespace expfinder
