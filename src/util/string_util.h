// Small string helpers shared by parsers, IO, and renderers.

#ifndef EXPFINDER_UTIL_STRING_UTIL_H_
#define EXPFINDER_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace expfinder {

/// Splits `s` on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

/// Removes leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// Lower-cases ASCII letters.
std::string ToLower(std::string_view s);

/// Parses a signed integer; returns false on malformed/overflowing input.
bool ParseInt64(std::string_view s, int64_t* out);

/// Parses a double; returns false on malformed input.
bool ParseDouble(std::string_view s, double* out);

/// Escapes `"` and `\` for embedding in quoted fields / DOT labels.
std::string EscapeQuoted(std::string_view s);

/// The topic layer's byte classes: ASCII alphanumerics form tokens and every
/// other byte separates them, bytes >= 0x80 included, whatever the locale.
inline bool IsTopicTokenChar(char c) {
  const unsigned char u = static_cast<unsigned char>(c);
  return (u >= '0' && u <= '9') || ((u | 0x20) >= 'a' && (u | 0x20) <= 'z');
}
inline char LowerAscii(char c) { return c >= 'A' && c <= 'Z' ? static_cast<char>(c | 0x20) : c; }

/// Appends the topic tokens of `s` to `*out`: maximal runs of ASCII
/// alphanumerics, lowercased; every other byte separates. This is the one
/// normalization the whole topic layer shares — the inverted index, the
/// `has_token` operator, and topic-term compilation must agree byte for
/// byte, so none of them may tokenize any other way.
void AppendTopicTokens(std::string_view s, std::vector<std::string>* out);

/// Convenience form of AppendTopicTokens returning a fresh vector.
std::vector<std::string> TopicTokens(std::string_view s);

/// Three-way comparison of `run`, a raw run of ASCII alphanumerics, with an
/// already-normalized topic token, lowercasing `run` inline the way
/// AppendTopicTokens would.
inline int CompareLoweredRun(std::string_view run, std::string_view token) {
  const size_t n = run.size() < token.size() ? run.size() : token.size();
  for (size_t i = 0; i < n; ++i) {
    const char c = LowerAscii(run[i]);
    if (c != token[i]) return c < token[i] ? -1 : 1;
  }
  if (run.size() == token.size()) return 0;
  return run.size() < token.size() ? -1 : 1;
}

/// Streams the topic tokens of `s` without materializing them: for each one
/// that occurs in `tokens` (sorted, unique, normalized), calls hit(index)
/// with its index in `tokens`, once per occurrence, stopping early when hit
/// returns false. Agrees with AppendTopicTokens byte for byte and allocates
/// nothing.
template <typename Hit>
void ForEachTopicTokenHit(std::string_view s, const std::vector<std::string>& tokens,
                          Hit&& hit) {
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && !IsTopicTokenChar(s[i])) ++i;
    size_t j = i;
    while (j < s.size() && IsTopicTokenChar(s[j])) ++j;
    if (j > i) {
      const std::string_view run = s.substr(i, j - i);
      // Tokens are lowercase ASCII alnum, so byte order (how `tokens` was
      // sorted) agrees with CompareLoweredRun and binary search applies.
      size_t lo = 0, hi = tokens.size();
      while (lo < hi) {
        const size_t mid = (lo + hi) / 2;
        if (CompareLoweredRun(run, tokens[mid]) > 0) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      if (lo < tokens.size() && CompareLoweredRun(run, tokens[lo]) == 0 && !hit(lo)) {
        return;
      }
    }
    i = j;
  }
}

/// FNV-1a 64-bit hash, used for pattern (cache key) fingerprints.
uint64_t Fnv1a(std::string_view s, uint64_t seed = 0xCBF29CE484222325ULL);

}  // namespace expfinder

#endif  // EXPFINDER_UTIL_STRING_UTIL_H_
