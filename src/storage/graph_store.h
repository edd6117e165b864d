// File-backed storage ("all the graphs and query results are stored and
// managed as files", paper §II): a directory holding named graphs, pattern
// queries, and match relations as checksummed text files.
//
//   <dir>/<name>.graph    — graph text format (graph_io.h)
//   <dir>/<name>.pattern  — pattern text format (pattern_parser.h)
//   <dir>/<name>.matches  — match-relation text format (below)
//
// Every object is a checksummed file (file_codec.h) written through the
// real FileOps: a Put that returns OK has been fsync'd and renamed into
// place with its directory entry synced, like a checkpoint, and an object
// only ever holds its previous or its new bytes. Checksum mismatches, any
// other checksum form, truncation, and garbage surface as Corruption naming
// the offending path — a bad file never crashes the reader or silently
// parses.
//
// A crash mid-Put leaves its temp (`<name>.<kind>.tmp.*`) behind, and Open
// does not sweep such temps: live writers may share a store directory, and
// a temp may belong to a Put in flight.

#ifndef EXPFINDER_STORAGE_GRAPH_STORE_H_
#define EXPFINDER_STORAGE_GRAPH_STORE_H_

#include <string>
#include <vector>

#include "src/graph/graph.h"
#include "src/matching/match_relation.h"
#include "src/query/pattern.h"
#include "src/util/result.h"

namespace expfinder {

/// \brief Directory-backed store of graphs / patterns / match relations.
class GraphStore {
 public:
  /// Opens (creating if needed) the store rooted at `dir`.
  static Result<GraphStore> Open(const std::string& dir);

  const std::string& dir() const { return dir_; }

  Status PutGraph(const std::string& name, const Graph& g);
  Result<Graph> GetGraph(const std::string& name) const;

  Status PutPattern(const std::string& name, const Pattern& p);
  Result<Pattern> GetPattern(const std::string& name) const;

  Status PutMatches(const std::string& name, const MatchRelation& m);
  Result<MatchRelation> GetMatches(const std::string& name) const;

  /// Names stored under the given extension ("graph", "pattern", "matches").
  std::vector<std::string> List(const std::string& kind) const;

  /// Removes the named object; NotFound when absent.
  Status Remove(const std::string& name, const std::string& kind);

 private:
  explicit GraphStore(std::string dir) : dir_(std::move(dir)) {}

  std::string PathFor(const std::string& name, const std::string& kind) const;

  std::string dir_;
};

/// Serializes a match relation (text, round-trip safe).
std::string SerializeMatchRelation(const MatchRelation& m);
/// Parses SerializeMatchRelation output.
Result<MatchRelation> ParseMatchRelation(const std::string& text);

}  // namespace expfinder

#endif  // EXPFINDER_STORAGE_GRAPH_STORE_H_
