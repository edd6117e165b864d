// Text serialization of graphs ("graphs ... are stored and managed as
// files", paper §II). The format is line-based and diff-friendly:
//
//   # expfinder graph v1
//   nodes <n>
//   node <id> "<label>" key=value key="string value" ...
//   edge <src> <dst>
//
// Values follow the AttrValue grammar (see ParseAttrValue). Node lines must
// appear in id order. Comments (#) and blank lines are ignored.

#ifndef EXPFINDER_GRAPH_GRAPH_IO_H_
#define EXPFINDER_GRAPH_GRAPH_IO_H_

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "src/graph/graph.h"
#include "src/util/result.h"
#include "src/util/status.h"

namespace expfinder {

/// Writes `g` in the text format.
Status SaveGraphText(const Graph& g, std::ostream& os);

/// Parses the text format; fails with Corruption and a line number on
/// malformed input.
Result<Graph> LoadGraphText(std::istream& is);

/// Splits a line into whitespace-separated tokens, keeping quoted segments
/// (with backslash escapes) intact — quotes are preserved in the token so
/// ParseAttrValue can classify it. Exposed for the pattern parser.
std::vector<std::string> TokenizeRespectingQuotes(std::string_view line);

}  // namespace expfinder

#endif  // EXPFINDER_GRAPH_GRAPH_IO_H_
