// Umbrella header: the public API of the ExpFinder library.
//
// ExpFinder (Fan, Wang, Wu — ICDE 2013) finds experts in social networks by
// graph pattern matching: bounded simulation queries, top-K social-impact
// ranking, incremental maintenance under edge updates, and query-preserving
// graph compression. See README.md for a tour; its "Performance
// architecture" section describes the architecture.

#ifndef EXPFINDER_EXPFINDER_H_
#define EXPFINDER_EXPFINDER_H_

// Utilities.
#include "src/util/dense_bitset.h"
#include "src/util/logging.h"
#include "src/util/random.h"
#include "src/util/result.h"
#include "src/util/status.h"
#include "src/util/string_util.h"
#include "src/util/thread_pool.h"
#include "src/util/timer.h"

// Graph substrate.
#include "src/graph/attribute.h"
#include "src/graph/bfs.h"
#include "src/graph/csr.h"
#include "src/graph/graph.h"
#include "src/graph/graph_io.h"
#include "src/graph/scc.h"
#include "src/graph/shortest_paths.h"
#include "src/graph/stats.h"
#include "src/graph/types.h"

// Dataset generators.
#include "src/generator/generators.h"

// Pattern queries.
#include "src/query/condition.h"
#include "src/query/pattern.h"
#include "src/query/pattern_parser.h"

// Topic inverted index (free-text expert search).
#include "src/index/attr_columns.h"
#include "src/index/topic_index.h"

// Matching engines.
#include "src/matching/bounded_simulation.h"
#include "src/matching/candidates.h"
#include "src/matching/dual_simulation.h"
#include "src/matching/explain.h"
#include "src/matching/match_context.h"
#include "src/matching/match_relation.h"
#include "src/matching/result_graph.h"
#include "src/matching/simulation.h"
#include "src/matching/vf2.h"

// Ranking.
#include "src/ranking/fusion.h"
#include "src/ranking/metrics.h"
#include "src/ranking/ranked_list_memo.h"
#include "src/ranking/social_impact.h"
#include "src/ranking/topk.h"

// Incremental computation.
#include "src/incremental/inc_bounded.h"
#include "src/incremental/update.h"

// Graph compression.
#include "src/compression/bisimulation.h"
#include "src/compression/compressed_graph.h"
#include "src/compression/maintenance.h"
#include "src/compression/sim_equivalence.h"

// Query engine.
#include "src/engine/planner.h"
#include "src/engine/query_engine.h"
#include "src/engine/result_cache.h"

// Concurrent serving API.
#include "src/service/admission_queue.h"
#include "src/service/expfinder_service.h"
#include "src/service/service_types.h"

// Storage & visualization.
#include "src/storage/graph_store.h"
#include "src/viz/dot_export.h"
#include "src/viz/table_render.h"

#endif  // EXPFINDER_EXPFINDER_H_
