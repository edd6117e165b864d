// Text format for pattern queries — the file-based counterpart of the GUI's
// Pattern Builder panel (paper Fig. 4). Grammar (line-based):
//
//   # expfinder pattern v1
//   node <name> <"label"|*> [<attr> <op> <value>]...
//   edge <srcName> <dstName> [<bound>|*]        (default bound 1)
//   output <name>
//
// Ops: == != < <= > >= contains. Values follow the AttrValue grammar.
// Pattern::ToText() emits exactly this format (round-trip safe).

#ifndef EXPFINDER_QUERY_PATTERN_PARSER_H_
#define EXPFINDER_QUERY_PATTERN_PARSER_H_

#include <iosfwd>
#include <string>
#include <string_view>

#include "src/query/pattern.h"
#include "src/util/result.h"

namespace expfinder {

/// Parses a pattern from text; fails with Corruption + line number on
/// malformed input, InvalidArgument when structurally invalid (e.g. no
/// output node).
Result<Pattern> ParsePatternText(std::string_view text);

/// Stream variant.
Result<Pattern> LoadPatternStream(std::istream& is);

}  // namespace expfinder

#endif  // EXPFINDER_QUERY_PATTERN_PARSER_H_
