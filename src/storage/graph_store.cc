#include "src/storage/graph_store.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#ifdef _WIN32
#include <process.h>
#else
#include <unistd.h>
#endif

#include "src/graph/graph_io.h"
#include "src/query/pattern_parser.h"
#include "src/util/crc32c.h"
#include "src/util/string_util.h"

namespace expfinder {

namespace fs = std::filesystem;

namespace {

constexpr std::string_view kChecksumPrefix = "# checksum ";
// Files carry "# checksum crc32c:<8 hex>".
constexpr std::string_view kCrc32cTag = "crc32c:";

std::string WithChecksum(const std::string& body) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", Crc32c(body));
  std::string out(kChecksumPrefix);
  out += kCrc32cTag;
  out += buf;
  out += "\n";
  out += body;
  return out;
}

/// Verifies the checksum line against `body`; `hex` is the token after the
/// prefix.
bool ChecksumMatches(std::string_view hex, const std::string& body) {
  if (!StartsWith(hex, kCrc32cTag)) return false;
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", Crc32c(body));
  return hex.substr(kCrc32cTag.size()) == buf;
}

/// Appends the offending path to a parse error, so corruption reports name
/// the file, not just the line inside it.
Status WithPath(const Status& st, const std::string& path) {
  if (st.ok()) return st;
  return Status(st.code(), st.message() + " [" + path + "]");
}

/// Write-temp-then-rename: the final path only ever holds a complete file.
/// A crash (or error) before the rename leaves at worst a stray `.tmp.*`
/// sibling, never a torn object — readers and List() look only at final
/// paths, and rename(2) replaces them atomically. The temp name embeds the
/// pid and a process-wide sequence number so concurrent writers of the
/// same object can never scribble into one another's temp file.
Status WriteFileAtomic(const std::string& path, const std::string& content) {
  static std::atomic<uint64_t> seq{0};
  std::string tmp = path + ".tmp." + std::to_string(static_cast<long>(getpid())) +
                    "." + std::to_string(seq.fetch_add(1));
  {
    std::ofstream f(tmp, std::ios::trunc);
    if (!f.is_open()) return Status::IOError("cannot open for writing: " + tmp);
    f << content;
    f.flush();
    if (!f.good()) {
      f.close();
      std::error_code ignored;
      fs::remove(tmp, ignored);
      return Status::IOError("write failed: " + tmp);
    }
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    std::error_code ignored;
    fs::remove(tmp, ignored);
    return Status::IOError("rename failed: " + ec.message());
  }
  return Status::OK();
}

Result<std::string> ReadCheckedFile(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f.is_open()) return Status::NotFound("no such file: " + path);
  std::ostringstream ss;
  ss << f.rdbuf();
  if (f.bad()) return Status::IOError("short read: " + path);
  std::string content = ss.str();
  if (content.empty()) {
    return Status::Corruption("empty file: " + path);
  }
  if (!StartsWith(content, kChecksumPrefix)) {
    return Status::Corruption("missing checksum header: " + path);
  }
  size_t eol = content.find('\n');
  if (eol == std::string::npos) {
    return Status::Corruption("truncated file (no body after header): " + path);
  }
  std::string_view hex =
      Trim(std::string_view(content).substr(kChecksumPrefix.size(),
                                            eol - kChecksumPrefix.size()));
  std::string body = content.substr(eol + 1);
  if (!ChecksumMatches(hex, body)) {
    return Status::Corruption("checksum mismatch in " + path);
  }
  return body;
}

}  // namespace

Result<GraphStore> GraphStore::Open(const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return Status::IOError("cannot create store dir: " + ec.message());
  if (!fs::is_directory(dir)) {
    return Status::InvalidArgument("store path is not a directory: " + dir);
  }
  return GraphStore(dir);
}

std::string GraphStore::PathFor(const std::string& name, const std::string& kind) const {
  return dir_ + "/" + name + "." + kind;
}

Status GraphStore::PutGraph(const std::string& name, const Graph& g) {
  std::ostringstream os;
  EF_RETURN_NOT_OK(SaveGraphText(g, os));
  return WriteFileAtomic(PathFor(name, "graph"), WithChecksum(os.str()));
}

Result<Graph> GraphStore::GetGraph(const std::string& name) const {
  const std::string path = PathFor(name, "graph");
  auto body = ReadCheckedFile(path);
  if (!body.ok()) return body.status();
  std::istringstream is(body.value());
  auto graph = LoadGraphText(is);
  if (!graph.ok()) return WithPath(graph.status(), path);
  return graph;
}

Status GraphStore::PutPattern(const std::string& name, const Pattern& p) {
  return WriteFileAtomic(PathFor(name, "pattern"), WithChecksum(p.ToText()));
}

Result<Pattern> GraphStore::GetPattern(const std::string& name) const {
  const std::string path = PathFor(name, "pattern");
  auto body = ReadCheckedFile(path);
  if (!body.ok()) return body.status();
  auto pattern = ParsePatternText(body.value());
  if (!pattern.ok()) return WithPath(pattern.status(), path);
  return pattern;
}

Status GraphStore::PutMatches(const std::string& name, const MatchRelation& m) {
  return WriteFileAtomic(PathFor(name, "matches"),
                         WithChecksum(SerializeMatchRelation(m)));
}

Result<MatchRelation> GraphStore::GetMatches(const std::string& name) const {
  const std::string path = PathFor(name, "matches");
  auto body = ReadCheckedFile(path);
  if (!body.ok()) return body.status();
  auto matches = ParseMatchRelation(body.value());
  if (!matches.ok()) return WithPath(matches.status(), path);
  return matches;
}

std::vector<std::string> GraphStore::List(const std::string& kind) const {
  std::vector<std::string> out;
  std::string ext = "." + kind;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file()) continue;
    std::string fname = entry.path().filename().string();
    if (fname.size() > ext.size() &&
        fname.compare(fname.size() - ext.size(), ext.size(), ext) == 0) {
      out.push_back(fname.substr(0, fname.size() - ext.size()));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

Status GraphStore::Remove(const std::string& name, const std::string& kind) {
  std::error_code ec;
  if (!fs::remove(PathFor(name, kind), ec) || ec) {
    return Status::NotFound("no such object: " + name + "." + kind);
  }
  return Status::OK();
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
