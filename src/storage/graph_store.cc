#include "src/storage/graph_store.h"

#include <algorithm>
#include <sstream>

#include "src/graph/graph_io.h"
#include "src/query/pattern_parser.h"
#include "src/storage/file_codec.h"
#include "src/util/string_util.h"

namespace expfinder {

namespace {

/// Appends the offending path to a parse error, so corruption reports name
/// the file, not just the line inside it.
Status WithPath(const Status& st, const std::string& path) {
  if (st.ok()) return st;
  return Status(st.code(), st.message() + " [" + path + "]");
}

}  // namespace

Result<GraphStore> GraphStore::Open(const std::string& dir) {
  EF_RETURN_NOT_OK(FileOps::Real()->CreateDirs(dir));
  return GraphStore(dir);
}

std::string GraphStore::PathFor(const std::string& name, const std::string& kind) const {
  return dir_ + "/" + name + "." + kind;
}

Status GraphStore::PutGraph(const std::string& name, const Graph& g) {
  std::ostringstream os;
  EF_RETURN_NOT_OK(SaveGraphText(g, os));
  return WriteChecksummedFile(FileOps::Real(), PathFor(name, "graph"), os.view());
}

Result<Graph> GraphStore::GetGraph(const std::string& name) const {
  const std::string path = PathFor(name, "graph");
  auto body = ReadChecksummedFile(FileOps::Real(), path);
  if (!body.ok()) return body.status();
  std::istringstream is(std::move(body).value());
  auto graph = LoadGraphText(is);
  if (!graph.ok()) return WithPath(graph.status(), path);
  return graph;
}

Status GraphStore::PutPattern(const std::string& name, const Pattern& p) {
  return WriteChecksummedFile(FileOps::Real(), PathFor(name, "pattern"), p.ToText());
}

Result<Pattern> GraphStore::GetPattern(const std::string& name) const {
  const std::string path = PathFor(name, "pattern");
  auto body = ReadChecksummedFile(FileOps::Real(), path);
  if (!body.ok()) return body.status();
  auto pattern = ParsePatternText(body.value());
  if (!pattern.ok()) return WithPath(pattern.status(), path);
  return pattern;
}

Status GraphStore::PutMatches(const std::string& name, const MatchRelation& m) {
  return WriteChecksummedFile(FileOps::Real(), PathFor(name, "matches"),
                              SerializeMatchRelation(m));
}

Result<MatchRelation> GraphStore::GetMatches(const std::string& name) const {
  const std::string path = PathFor(name, "matches");
  auto body = ReadChecksummedFile(FileOps::Real(), path);
  if (!body.ok()) return body.status();
  auto matches = ParseMatchRelation(body.value());
  if (!matches.ok()) return WithPath(matches.status(), path);
  return matches;
}

std::vector<std::string> GraphStore::List(const std::string& kind) const {
  std::vector<std::string> out;
  auto names = FileOps::Real()->ListDir(dir_);
  if (!names.ok()) return out;
  const std::string ext = "." + kind;
  for (const std::string& fname : *names) {
    if (fname.size() > ext.size() &&
        fname.compare(fname.size() - ext.size(), ext.size(), ext) == 0) {
      out.push_back(fname.substr(0, fname.size() - ext.size()));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

Status GraphStore::Remove(const std::string& name, const std::string& kind) {
  return FileOps::Real()->RemoveFile(PathFor(name, kind));
}

std::string SerializeMatchRelation(const MatchRelation& m) {
  std::ostringstream os;
  os << "# expfinder matches v1\n";
  os << "patternnodes " << m.NumPatternNodes() << "\n";
  for (PatternNodeId u = 0; u < m.NumPatternNodes(); ++u) {
    os << "match " << u;
    for (NodeId v : m.MatchesOf(u)) os << " " << v;
    os << "\n";
  }
  return os.str();
}

Result<MatchRelation> ParseMatchRelation(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  MatchRelation m;
  size_t line_no = 0;
  bool sized = false;
  while (std::getline(is, line)) {
    ++line_no;
    std::string_view sv = Trim(line);
    if (sv.empty() || sv.front() == '#') continue;
    auto tokens = Split(std::string(sv), ' ');
    if (tokens[0] == "patternnodes") {
      int64_t n;
      if (tokens.size() != 2 || !ParseInt64(tokens[1], &n) || n < 0) {
        return Status::Corruption("bad patternnodes line " + std::to_string(line_no));
      }
      // Patterns are small by construction; a huge count is a corrupted
      // length field, not an allocation request.
      if (n > (1 << 20)) {
        return Status::Corruption("oversized patternnodes count " +
                                  std::to_string(n) + " at line " +
                                  std::to_string(line_no));
      }
      m = MatchRelation(static_cast<size_t>(n));
      sized = true;
    } else if (tokens[0] == "match") {
      if (!sized || tokens.size() < 2) {
        return Status::Corruption("match before patternnodes at line " +
                                  std::to_string(line_no));
      }
      int64_t u;
      if (!ParseInt64(tokens[1], &u) || u < 0 ||
          static_cast<size_t>(u) >= m.NumPatternNodes()) {
        return Status::Corruption("bad pattern node id at line " +
                                  std::to_string(line_no));
      }
      std::vector<NodeId> nodes;
      for (size_t i = 2; i < tokens.size(); ++i) {
        if (tokens[i].empty()) continue;
        int64_t v;
        if (!ParseInt64(tokens[i], &v) || v < 0 || v >= kInvalidNode) {
          return Status::Corruption("bad node id at line " + std::to_string(line_no));
        }
        nodes.push_back(static_cast<NodeId>(v));
      }
      if (!std::is_sorted(nodes.begin(), nodes.end())) {
        return Status::Corruption("unsorted match list at line " +
                                  std::to_string(line_no));
      }
      m.SetMatches(static_cast<PatternNodeId>(u), std::move(nodes));
    } else {
      return Status::Corruption("unknown directive at line " + std::to_string(line_no));
    }
  }
  if (!sized) return Status::Corruption("missing patternnodes header");
  return m;
}

}  // namespace expfinder
