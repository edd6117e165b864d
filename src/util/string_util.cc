#include "src/util/string_util.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace expfinder {

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool ParseInt64(std::string_view s, int64_t* out) {
  s = Trim(s);
  if (s.empty()) return false;
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(buf.c_str(), &end, 10);
  if (errno == ERANGE || end != buf.c_str() + buf.size()) return false;
  *out = static_cast<int64_t>(v);
  return true;
}

bool ParseDouble(std::string_view s, double* out) {
  s = Trim(s);
  if (s.empty()) return false;
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  if (errno == ERANGE || end != buf.c_str() + buf.size()) return false;
  *out = v;
  return true;
}

std::string EscapeQuoted(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

void AppendTopicTokens(std::string_view s, std::vector<std::string>* out) {
  std::string token;
  for (char c : s) {
    if (IsTopicTokenChar(c)) {
      token.push_back(LowerAscii(c));
    } else if (!token.empty()) {
      out->push_back(std::move(token));
      token.clear();
    }
  }
  if (!token.empty()) out->push_back(std::move(token));
}

std::vector<std::string> TopicTokens(std::string_view s) {
  std::vector<std::string> out;
  AppendTopicTokens(s, &out);
  return out;
}

std::vector<std::string> SortedTopicTokens(const std::vector<std::string>& terms) {
  std::vector<std::string> tokens;
  for (const std::string& t : terms) AppendTopicTokens(t, &tokens);
  std::sort(tokens.begin(), tokens.end());
  tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
  return tokens;
}

uint64_t Fnv1a(std::string_view s, uint64_t seed) {
  uint64_t h = seed;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  return h;
}

}  // namespace expfinder
