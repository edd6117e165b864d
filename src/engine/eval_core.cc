#include "src/engine/eval_core.h"

#include "src/matching/bounded_simulation.h"

namespace expfinder {

namespace {

/// The cooperative interruption point polled at evaluation stage
/// boundaries: cancellation wins over the deadline (a cancelled request
/// should not masquerade as slow).
Status CheckInterrupts(const EvalOverrides& overrides) {
  if (overrides.cancelled != nullptr &&
      overrides.cancelled->load(std::memory_order_acquire)) {
    return Status::Cancelled("evaluation cancelled at stage boundary");
  }
  if (overrides.timer != nullptr && overrides.time_budget_ms > 0.0 &&
      overrides.timer->ElapsedMillis() > overrides.time_budget_ms) {
    return Status::DeadlineExceeded("time budget exhausted at stage boundary");
  }
  return Status::OK();
}

}  // namespace

std::string_view ServingPathName(ServingPath path) {
  switch (path) {
    case ServingPath::kCache: return "cache";
    case ServingPath::kMaintained: return "maintained";
    case ServingPath::kPlannerShortCircuit: return "planner_short_circuit";
    case ServingPath::kCompressed: return "compressed";
    case ServingPath::kDirect: return "direct";
  }
  return "unknown";
}

uint64_t QueryCacheKey(const Pattern& q, MatchSemantics semantics) {
  // The canonical fingerprint, so equivalent conjunctions — e.g. a pattern
  // compiled from topic_terms vs. the same conditions written explicitly in
  // another order — land on the same cache line and maintained entry.
  uint64_t fp = q.CanonicalFingerprint();
  return semantics == MatchSemantics::kBoundedSimulation ? fp
                                                         : fp ^ 0x9E3779B97F4A7C15ULL;
}

Result<MatchRelation> EvalCore::Evaluate(const EngineSnapshot& snap,
                                         const Pattern& q, MatchSemantics semantics,
                                         const EvalOverrides& overrides,
                                         MatchContext* ctx, ServingPath* path,
                                         const SupportPairs** pairs) const {
  *path = ServingPath::kDirect;
  if (pairs != nullptr) *pairs = nullptr;
  EvalPlan plan = planner_.Plan(snap.graph->graph(), q);
  plan.match_options.num_threads =
      overrides.match_threads.value_or(options_.match_threads);
  plan.match_options.ball_index = options_.ball_index;
  plan.match_options.topic_index = options_.topic_index;
  if (plan.provably_empty) {
    *path = ServingPath::kPlannerShortCircuit;
    return MatchRelation(q.NumNodes());
  }
  EF_RETURN_NOT_OK(CheckInterrupts(overrides));  // planned, not yet matched
  // The forward-bisimulation quotient does not preserve parent constraints,
  // so dual queries always run directly on G.
  if (semantics == MatchSemantics::kBoundedSimulation && snap.compressed != nullptr &&
      snap.compressed->IsCompatible(q)) {
    // The compressed view was frozen current at publish time — its
    // compatibility with snap.graph needs no version check here.
    *path = ServingPath::kCompressed;
    MatchRelation compressed =
        ComputeBoundedSimulation(snap.compressed_graph, q, plan.match_options, ctx);
    EF_RETURN_NOT_OK(CheckInterrupts(overrides));  // matched, not decompressed
    return snap.compressed->Decompress(compressed);
  }
  MatchRelation matches =
      ComputeBoundedSimulation(snap.graph, q, plan.match_options, ctx, semantics);
  if (pairs != nullptr) *pairs = &ctx->Pairs();
  return matches;
}

}  // namespace expfinder
