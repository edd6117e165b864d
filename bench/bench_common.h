// Shared helpers for the benchmark harness: dataset construction and the
// paper-style experiment headers.

#ifndef EXPFINDER_BENCH_BENCH_COMMON_H_
#define EXPFINDER_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <string>

#include "src/expfinder.h"

namespace expfinder {
namespace bench {

inline Graph MakeCollab(size_t n, uint64_t seed = 1) {
  gen::CollaborationConfig cfg;
  cfg.num_people = n;
  cfg.num_teams = n / 6;
  cfg.seed = seed;
  return gen::CollaborationNetwork(cfg);
}

inline Graph MakeTwitter(size_t n, uint64_t seed = 1) {
  gen::TwitterLikeConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  return gen::TwitterLike(cfg);
}

/// MakeTwitter with topic-expertise labels and attributes (name,
/// experience, specialty, topics) on every node.
inline Graph MakeTopicTwitter(size_t n, uint64_t seed = 7) {
  gen::TwitterLikeConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  cfg.labels = gen::TopicExpertiseModel();
  return gen::TwitterLike(cfg);
}

inline Graph MakeEr(size_t n, uint64_t seed = 1) {
  return gen::ErdosRenyi(n, 5 * n, seed);
}

/// MakeEr with topic-labelled nodes: every node lists expertise topics, so
/// topic queries and fusion ranking have text to work on.
inline Graph MakeTopicEr(size_t n, uint64_t seed = 1) {
  return gen::ErdosRenyi(n, 5 * n, seed, gen::TopicExpertiseModel());
}

inline void Header(const std::string& experiment, const std::string& claim) {
  std::printf("\n=== %s ===\n", experiment.c_str());
  std::printf("paper claim: %s\n\n", claim.c_str());
}

}  // namespace bench
}  // namespace expfinder

#endif  // EXPFINDER_BENCH_BENCH_COMMON_H_
