// Synthetic dataset generators (paper §III, "Dataset"):
//   (1) a parametric generator family producing "arbitrarily large graphs"
//       (Erdős–Rényi, preferential attachment, collaboration networks), and
//   (2) a Twitter-like generator standing in for the paper's real Twitter
//       fraction, which is not available: directed scale-free topology
//       with configurable reciprocity and Zipf-skewed expertise labels —
//       the structural properties the evaluated code paths depend on.
// All generators are deterministic in their seed.

#ifndef EXPFINDER_GENERATOR_GENERATORS_H_
#define EXPFINDER_GENERATOR_GENERATORS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/graph/graph.h"
#include "src/query/pattern.h"

namespace expfinder {
namespace gen {

/// \brief How node labels and attributes are assigned.
struct LabelModel {
  /// Expertise fields; assigned with Zipf(zipf_s) popularity (index 0 most
  /// common).
  std::vector<std::string> labels;
  double zipf_s = 1.0;
  /// "experience" attribute: uniform integer in [0, max_experience].
  int max_experience = 15;
  /// Optional "specialty" attribute pool (uniform); empty disables it.
  std::vector<std::string> specialties;
  /// Optional "topics" attribute: `topics_per_node` phrases sampled
  /// uniformly (with replacement) from this pool, joined with "; ". Empty
  /// pool disables it. Fodder for the topic inverted index and the
  /// "find experts about X" workloads (see index/topic_index.h).
  std::vector<std::string> topics;
  size_t topics_per_node = 2;
};

/// Eight-field expertise model used across examples and benchmarks.
LabelModel DefaultExpertiseModel();

/// DefaultExpertiseModel plus a twelve-phrase "topics" pool — the model the
/// topic-search examples, tests, and benches share.
LabelModel TopicExpertiseModel();

/// Assigns label + attributes to every node of an unlabeled topology is not
/// exposed; generators label nodes as they create them using this model.

/// Uniform random digraph with exactly `m` distinct edges (no self-loops).
Graph ErdosRenyi(size_t n, size_t m, uint64_t seed,
                 const LabelModel& model = DefaultExpertiseModel());

/// Directed preferential attachment: each new node emits `out_per_node`
/// edges to targets sampled by (in-degree + 1); with probability
/// `reciprocity` the reverse edge is also added. Produces the heavy-tailed
/// in-degree profile of follower networks.
Graph PreferentialAttachment(size_t n, size_t out_per_node, uint64_t seed,
                             double reciprocity = 0.2,
                             const LabelModel& model = DefaultExpertiseModel());

/// \brief Project-team collaboration network in the spirit of Fig. 1(b):
/// overlapping teams with a lead connected to all members, dense intra-team
/// collaboration and sparse cross-team links.
struct CollaborationConfig {
  size_t num_people = 1000;
  size_t num_teams = 150;
  size_t team_size_min = 4;
  size_t team_size_max = 10;
  /// Probability of a directed edge between two distinct team members.
  double intra_team_density = 0.3;
  /// Number of extra uniformly random cross-team edges, as a fraction of
  /// num_people.
  double cross_link_factor = 0.5;
  /// Fraction of people who are junior contributors: they collaborate in
  /// teams (receive edges) but never lead or initiate (no outgoing edges).
  /// Real collaboration networks are dominated by such peripheral members;
  /// this is also what makes them highly compressible (SIGMOD'12 reports
  /// ~57% average reduction on real graphs).
  double junior_fraction = 0.35;
  /// Of the juniors, the fraction who are "assistants": they credit exactly
  /// one senior colleague (a single outgoing edge to a team lead). Same-lead
  /// assistants are behaviourally identical — the edge-level redundancy of
  /// real collaboration data.
  double assistant_fraction = 0.4;
  uint64_t seed = 42;
  LabelModel labels = DefaultExpertiseModel();
};
Graph CollaborationNetwork(const CollaborationConfig& config);

/// Directed small-world ring (Watts–Strogatz): each node links to its next
/// `k` ring successors; every edge is rewired to a uniform random target
/// with probability `beta`. High clustering + short paths — the regime
/// where bounded-simulation edges (paths <= k) differ most from plain
/// simulation.
Graph SmallWorld(size_t n, size_t k, double beta, uint64_t seed,
                 const LabelModel& model = DefaultExpertiseModel());

/// \brief R-MAT (recursive-matrix / Kronecker-style) generator: 2^scale
/// nodes, edge_factor * 2^scale edges sampled by recursive quadrant descent
/// with probabilities (a, b, c, 1-a-b-c). The standard scalable power-law
/// generator for "arbitrarily large" benchmark graphs (paper §III).
struct RmatConfig {
  size_t scale = 14;       // 2^scale nodes
  size_t edge_factor = 8;  // edges per node
  double a = 0.57, b = 0.19, c = 0.19;
  uint64_t seed = 5;
  LabelModel labels = DefaultExpertiseModel();
};
Graph Rmat(const RmatConfig& config);

/// \brief Stand-in for the paper's Twitter data: preferential attachment
/// core + reciprocity + Zipf labels + a sprinkling of random bridges.
struct TwitterLikeConfig {
  size_t n = 10000;
  size_t out_per_node = 5;
  double reciprocity = 0.22;  // measured reciprocity of Twitter is ~22%
  double bridge_factor = 0.1; // extra random edges as fraction of n
  /// Fraction of passive accounts: they are followed (receive edges via
  /// preferential attachment) but never act (no outgoing edges). Roughly
  /// half of real Twitter accounts are passive; the redundancy they create
  /// is what query-preserving compression exploits.
  double lurker_fraction = 0.35;
  /// Fraction of "fan" accounts that follow only one or two of the top
  /// celebrity hubs (no other activity). Fans of the same hubs are
  /// behaviourally identical, so both they and their follow edges collapse
  /// under compression — the edge-level redundancy of real follower graphs.
  double fan_fraction = 0.25;
  /// Size of the celebrity pool fans choose from.
  size_t celebrity_pool = 24;
  uint64_t seed = 7;
  LabelModel labels = DefaultExpertiseModel();
};
Graph TwitterLike(const TwitterLikeConfig& config);

// --- Fig. 1 of the paper --------------------------------------------------

/// Node ids of the Fig. 1(b) collaboration network reconstruction.
struct Fig1 {
  enum : NodeId {
    kBob = 0,
    kWalt = 1,
    kJean = 2,
    kMat = 3,
    kDan = 4,
    kPat = 5,
    kFred = 6,
    kEva = 7,
    kBill = 8,
  };
};

/// Builds the Fig. 1(b) collaboration network *excluding* edge e1, labelled
/// with fields {SA, SD, BA, ST, GD}, specialties and experience, such that
/// the paper's reported facts hold exactly:
///   M(Q,G) = {(SA,Bob),(SA,Walt),(BA,Jean),(SD,Mat),(SD,Dan),(SD,Pat),
///             (ST,Eva)};
///   f(SA,Bob) = 9/5, f(SA,Walt) = 7/3, Bob is the top-1 SA;
///   inserting e1 adds exactly (SD, Fred).
Graph BuildFig1Graph();

/// The update edge e1 = (Fred, Jean) of Example 3.
std::pair<NodeId, NodeId> Fig1EdgeE1();

/// Builds the Fig. 1(a) pattern query Q: output node SA (experience >= 5)
/// with edges SA->SD (bound 2), SA->BA (bound 3), SD->ST (bound 2),
/// BA->ST (bound 1), and the experience conditions from the paper.
Pattern BuildFig1Pattern();

/// A family of team-formation queries in the spirit of Fig. 4's Q1-Q3,
/// parameterized by index (0..2), built against the default expertise model
/// labels. Used by examples and benchmarks.
Pattern TeamQuery(int index);

/// Random pattern generator for property tests and benchmarks: `num_nodes`
/// pattern nodes over the model's labels, ~`num_edges` random edges with
/// bounds in [1, max_bound] (1 when max_bound == 1 gives plain simulation
/// patterns), experience conditions with probability `cond_prob`.
Pattern RandomPattern(size_t num_nodes, size_t num_edges, Distance max_bound,
                      double cond_prob, uint64_t seed,
                      const LabelModel& model = DefaultExpertiseModel());

}  // namespace gen
}  // namespace expfinder

#endif  // EXPFINDER_GENERATOR_GENERATORS_H_
