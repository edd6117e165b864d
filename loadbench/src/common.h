// Small helpers shared by the benchmark's modules: clocks, percentiles,
// process resource readings and answer fingerprints.

#ifndef LOADBENCH_COMMON_H_
#define LOADBENCH_COMMON_H_

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "src/expfinder.h"

namespace loadbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Nearest-rank percentile (q in [0, 1]) of `v`; +inf entries stand for
/// failed operations, which miss every latency limit. 0 when empty.
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

/// Whether `n` samples leave at least ten beyond the q-th percentile.
inline bool PercentileSupported(size_t n, double q) {
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return n >= rank + 10;
}

inline double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

/// Process CPU time (user + system), milliseconds.
inline double ProcessCpuMs() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  auto ms = [](const timeval& t) { return t.tv_sec * 1e3 + t.tv_usec / 1e3; };
  return ms(u.ru_utime) + ms(u.ru_stime);
}

/// CPU time of the calling thread, milliseconds.
inline double ThreadCpuMs() {
  timespec t{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return t.tv_sec * 1e3 + t.tv_nsec / 1e6;
}

/// Resets this process's peak-RSS mark to its current RSS (Linux
/// /proc/self/clear_refs); false where that is not possible.
inline bool ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool written = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && written;
}

/// Peak resident set size of this process since the last ResetPeakRss
/// (VmHWM), MiB; the lifetime peak (ru_maxrss) where VmHWM is unreadable.
inline double PeakRssMb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    unsigned long kb = 0;
    bool found = false;
    while (!found && std::fgets(line, sizeof line, f) != nullptr) {
      found = std::sscanf(line, "VmHWM: %lu kB", &kb) == 1;
    }
    std::fclose(f);
    if (found) return static_cast<double>(kb) / 1024.0;
  }
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// FNV-1a over 64-bit words.
class Fingerprint {
 public:
  void Add(uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (x >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

inline uint64_t RelationFingerprint(const expfinder::MatchRelation& m) {
  Fingerprint f;
  for (expfinder::PatternNodeId u = 0; u < m.NumPatternNodes(); ++u) {
    const auto& nodes = m.MatchesOf(u);
    f.Add(nodes.size());
    for (expfinder::NodeId v : nodes) f.Add(v);
  }
  return f.value();
}

inline uint64_t RankedFingerprint(const std::vector<expfinder::RankedMatch>& ranked) {
  Fingerprint f;
  f.Add(ranked.size());
  for (const expfinder::RankedMatch& r : ranked) {
    uint64_t bits = 0;
    std::memcpy(&bits, &r.score, sizeof bits);
    f.Add(r.node);
    f.Add(bits);
  }
  return f.value();
}

inline const char* StatusCodeName(expfinder::StatusCode code) {
  using expfinder::StatusCode;
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kInvalidArgument: return "invalid_argument";
    case StatusCode::kNotFound: return "not_found";
    case StatusCode::kAlreadyExists: return "already_exists";
    case StatusCode::kOutOfRange: return "out_of_range";
    case StatusCode::kIOError: return "io_error";
    case StatusCode::kCorruption: return "corruption";
    case StatusCode::kUnsupported: return "unsupported";
    case StatusCode::kInternal: return "internal";
    case StatusCode::kDeadlineExceeded: return "deadline_exceeded";
    case StatusCode::kCancelled: return "cancelled";
    case StatusCode::kResourceExhausted: return "resource_exhausted";
    case StatusCode::kDataLoss: return "data_loss";
    case StatusCode::kUnavailable: return "unavailable";
  }
  return "unknown";
}

}  // namespace loadbench

#endif  // LOADBENCH_COMMON_H_
