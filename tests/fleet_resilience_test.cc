// Self-healing replica fleet (ISSUE 10): the watchdog, the fault-injected
// delta transport, fail-fast acquisition, and the service's read-resilience
// ladder.
//
// The correctness bar, bottom to top:
//   * ReplicaHealth implements exactly the documented policy: N consecutive
//     failures (or runaway lag) quarantine; backoff is capped-exponential
//     with deterministic per-replica jitter on an injectable clock; the
//     streak resets only on confirmed post-restart progress.
//   * FaultyDeltaSource injects each fault mode deterministically and
//     counts it; a disarmed plan is a transparent passthrough.
//   * A fleet fed a poisoned transport quarantines the sick replica and
//     auto-restarts it from a fresh anchor — converging to the primary even
//     while the faults persist, because the install path bypasses the
//     transport. A re-anchor never rolls a replica back to a checkpoint
//     older than its state.
//   * Acquire fails fast (AcquireOutcome::kUnavailable) when no applier can
//     recover, and waiters are woken on replica death instead of sleeping
//     out their deadline.
//   * The service walks the resilience ladder — bounded retries,
//     staleness relaxation, primary fallback — and maps fleet exhaustion
//     to Status::kUnavailable, counted in `unavailable` and nowhere else.
//   * StopReplica/RestartReplica racing Acquire waiters and routed reads is
//     clean under TSan (this suite carries the concurrency label).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/generator/generators.h"
#include "src/graph/graph_io.h"
#include "src/incremental/update.h"
#include "src/replication/delta.h"
#include "src/replication/fault_source.h"
#include "src/replication/fleet.h"
#include "src/replication/health.h"
#include "src/service/expfinder_service.h"
#include "src/storage/checkpoint.h"
#include "src/storage/durable_graph.h"
#include "src/util/clock.h"

namespace expfinder {
namespace {

std::string GraphText(const Graph& g) {
  std::ostringstream os;
  EXPECT_TRUE(SaveGraphText(g, os).ok());
  return os.str();
}

bool WaitFor(const std::function<bool()>& pred, double timeout_ms) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(static_cast<int64_t>(timeout_ms));
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

double ElapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// A miniature primary (same shape as replication_test's harness): a graph,
// an LSN counter, and a Ship() mirroring the service's write path.
class FleetHarness {
 public:
  explicit FleetHarness(Graph graph, InProcessDeltaSource* source)
      : graph_(std::move(graph)), source_(source) {}

  void ShipBatch(const UpdateBatch& batch) {
    std::lock_guard<std::mutex> lock(mu_);
    ASSERT_TRUE(ApplyBatch(&graph_, batch).ok());
    source_->Ship(next_lsn_++, DurableGraph::EncodeBatch(batch));
  }

  ReplicaBootstrap Install() {
    std::lock_guard<std::mutex> lock(mu_);
    ReplicaBootstrap b;
    b.graph = graph_;
    b.next_lsn = next_lsn_;
    return b;
  }

  uint64_t version() {
    std::lock_guard<std::mutex> lock(mu_);
    return graph_.version();
  }

  const Graph& graph() const { return graph_; }  // quiesced use only

 private:
  std::mutex mu_;
  Graph graph_;
  uint64_t next_lsn_ = 0;
  InProcessDeltaSource* source_;
};

// ---------------------------------------------------------------------------
// Clock: the injectable time axis the watchdog schedule runs on.
// ---------------------------------------------------------------------------

TEST(ClockTest, FakeClockSleepAdvancesInsteadOfBlocking) {
  FakeClock clock(100.0);
  EXPECT_DOUBLE_EQ(clock.NowMillis(), 100.0);
  clock.SleepMillis(50.0);
  EXPECT_DOUBLE_EQ(clock.NowMillis(), 150.0);
  clock.SleepMillis(0.0);
  clock.SleepMillis(-5.0);  // <= 0 is a no-op
  EXPECT_DOUBLE_EQ(clock.NowMillis(), 150.0);
  clock.Advance(25.0);
  EXPECT_DOUBLE_EQ(clock.NowMillis(), 175.0);
}

TEST(ClockTest, RealClockIsMonotonic) {
  Clock* real = Clock::Real();
  ASSERT_NE(real, nullptr);
  EXPECT_EQ(real, Clock::Real());  // process-wide singleton
  const double a = real->NowMillis();
  real->SleepMillis(1.0);
  EXPECT_GE(real->NowMillis(), a);
}

// ---------------------------------------------------------------------------
// ReplicaHealth: the watchdog policy, asserted schedule-exact on a
// FakeClock.
// ---------------------------------------------------------------------------

TEST(ReplicaHealthTest, QuarantinesAfterConsecutiveFailuresOnly) {
  FakeClock clock;
  ReplicaHealthOptions opts;
  opts.quarantine_after_failures = 3;
  opts.backoff_initial_ms = 100.0;
  opts.backoff_jitter = 0.0;
  opts.clock = &clock;
  ReplicaHealth health(0, opts);

  EXPECT_FALSE(health.RecordFailure());
  EXPECT_FALSE(health.RecordFailure());
  EXPECT_EQ(health.consecutive_failures(), 2u);
  health.RecordSuccess();  // any progress ends the streak
  EXPECT_EQ(health.consecutive_failures(), 0u);

  EXPECT_FALSE(health.RecordFailure());
  EXPECT_FALSE(health.RecordFailure());
  EXPECT_TRUE(health.RecordFailure());  // third consecutive: quarantine
  EXPECT_TRUE(health.quarantined());
  EXPECT_EQ(health.quarantines(), 1u);
  EXPECT_DOUBLE_EQ(health.last_backoff_ms(), 100.0);

  // Further failures while quarantined do not re-trigger.
  EXPECT_FALSE(health.RecordFailure());
  EXPECT_EQ(health.quarantines(), 1u);

  // The restart comes due exactly backoff_initial_ms later on the clock.
  EXPECT_DOUBLE_EQ(health.RestartDelayRemainingMs(), 100.0);
  clock.Advance(60.0);
  EXPECT_DOUBLE_EQ(health.RestartDelayRemainingMs(), 40.0);
  clock.Advance(60.0);
  EXPECT_DOUBLE_EQ(health.RestartDelayRemainingMs(), 0.0);

  health.OnAutoRestart();
  EXPECT_FALSE(health.quarantined());
  EXPECT_EQ(health.auto_restarts(), 1u);
  EXPECT_EQ(health.consecutive_failures(), 0u);
}

TEST(ReplicaHealthTest, BackoffEscalatesUntilConfirmedProgress) {
  FakeClock clock;
  ReplicaHealthOptions opts;
  opts.quarantine_after_failures = 1;
  opts.backoff_initial_ms = 10.0;
  opts.backoff_max_ms = 40.0;
  opts.backoff_jitter = 0.0;
  opts.clock = &clock;
  ReplicaHealth health(0, opts);

  auto quarantine_once = [&] {
    EXPECT_TRUE(health.RecordFailure());
    clock.Advance(health.RestartDelayRemainingMs());
    health.OnAutoRestart();
  };

  // No success between incidents: the streak escalates 10 -> 20 -> 40,
  // then caps at backoff_max_ms.
  quarantine_once();
  EXPECT_DOUBLE_EQ(health.last_backoff_ms(), 10.0);
  quarantine_once();
  EXPECT_DOUBLE_EQ(health.last_backoff_ms(), 20.0);
  quarantine_once();
  EXPECT_DOUBLE_EQ(health.last_backoff_ms(), 40.0);
  quarantine_once();
  EXPECT_DOUBLE_EQ(health.last_backoff_ms(), 40.0);  // capped
  EXPECT_EQ(health.quarantines(), 4u);
  EXPECT_EQ(health.auto_restarts(), 4u);

  // The first post-restart success confirms health; the next incident
  // starts the schedule over from backoff_initial_ms.
  health.RecordSuccess();
  quarantine_once();
  EXPECT_DOUBLE_EQ(health.last_backoff_ms(), 10.0);
}

TEST(ReplicaHealthTest, RunawayLagQuarantines) {
  FakeClock clock;
  ReplicaHealthOptions opts;
  opts.quarantine_after_failures = 0;  // lag-driven only
  opts.quarantine_lag_records = 5;
  opts.backoff_jitter = 0.0;
  opts.clock = &clock;
  ReplicaHealth health(0, opts);

  EXPECT_FALSE(health.RecordLag(0));
  EXPECT_FALSE(health.RecordLag(4));
  EXPECT_TRUE(health.RecordLag(5));
  EXPECT_TRUE(health.quarantined());
  EXPECT_FALSE(health.RecordLag(100));  // already quarantined
  EXPECT_EQ(health.quarantines(), 1u);
}

TEST(ReplicaHealthTest, ZeroThresholdsDisableQuarantine) {
  FakeClock clock;
  ReplicaHealthOptions opts;
  opts.quarantine_after_failures = 0;
  opts.quarantine_lag_records = 0;
  opts.clock = &clock;
  ReplicaHealth health(0, opts);

  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(health.RecordFailure());
    EXPECT_FALSE(health.RecordLag(1u << 20));
  }
  EXPECT_FALSE(health.quarantined());
  EXPECT_EQ(health.consecutive_failures(), 10u);
  EXPECT_EQ(health.quarantines(), 0u);
}

TEST(ReplicaHealthTest, JitterIsDeterministicPerReplicaAndBounded) {
  FakeClock clock;
  ReplicaHealthOptions opts;
  opts.quarantine_after_failures = 1;
  opts.backoff_initial_ms = 100.0;
  opts.backoff_max_ms = 10000.0;
  opts.backoff_jitter = 0.25;
  opts.clock = &clock;

  auto first_backoff = [&](size_t replica_id) {
    ReplicaHealth health(replica_id, opts);
    EXPECT_TRUE(health.RecordFailure());
    return health.last_backoff_ms();
  };

  // Same replica id, same seed: the jittered window is reproducible.
  EXPECT_DOUBLE_EQ(first_backoff(0), first_backoff(0));
  EXPECT_DOUBLE_EQ(first_backoff(3), first_backoff(3));
  // Always within backoff * (1 +/- jitter).
  for (size_t id = 0; id < 8; ++id) {
    const double b = first_backoff(id);
    EXPECT_GE(b, 75.0) << "replica " << id;
    EXPECT_LE(b, 125.0) << "replica " << id;
  }
}

// ---------------------------------------------------------------------------
// FaultyDeltaSource: every injected fault mode, counted and deterministic.
// ---------------------------------------------------------------------------

TEST(FaultyDeltaSourceTest, DisarmedPlanIsTransparentPassthrough) {
  InProcessDeltaSource base({}, 0);
  base.Ship(0, "alpha");
  base.Ship(1, "beta");

  FaultyDeltaSource faulty({}, &base);
  auto got = faulty.Fetch(0, 16);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_FALSE(got->lost_prefix);
  ASSERT_EQ(got->deltas.size(), 2u);
  EXPECT_EQ(got->deltas[0].payload, "alpha");
  EXPECT_EQ(got->deltas[1].payload, "beta");
  EXPECT_EQ(faulty.end_lsn(), 2u);

  auto c = faulty.counters();
  EXPECT_EQ(c.fetch_errors, 0u);
  EXPECT_EQ(c.stalls, 0u);
  EXPECT_EQ(c.truncated_batches, 0u);
  EXPECT_EQ(c.duplicated_frames, 0u);
  EXPECT_EQ(c.garbled_frames, 0u);
  EXPECT_EQ(c.forced_lost_prefixes, 0u);
}

TEST(FaultyDeltaSourceTest, InjectsFetchErrorsAndForcedLostPrefix) {
  InProcessDeltaSource base({}, 0);
  base.Ship(0, "alpha");

  DeltaFaultPlan plan;
  plan.fetch_error_prob = 1.0;
  FaultyDeltaSource faulty(plan, &base);
  auto err = faulty.Fetch(0, 16);
  ASSERT_FALSE(err.ok());
  EXPECT_NE(err.status().ToString().find("injected delta fetch error"),
            std::string::npos)
      << err.status();
  EXPECT_EQ(faulty.counters().fetch_errors, 1u);

  plan = DeltaFaultPlan{};
  plan.lost_prefix_prob = 1.0;
  faulty.SetPlan(plan);
  auto lost = faulty.Fetch(0, 16);
  ASSERT_TRUE(lost.ok()) << lost.status();
  EXPECT_TRUE(lost->lost_prefix);
  EXPECT_TRUE(lost->deltas.empty());
  EXPECT_EQ(faulty.counters().forced_lost_prefixes, 1u);

  // Disarm: the same fetch now round-trips cleanly.
  faulty.SetPlan({});
  auto clean = faulty.Fetch(0, 16);
  ASSERT_TRUE(clean.ok());
  EXPECT_FALSE(clean->lost_prefix);
  ASSERT_EQ(clean->deltas.size(), 1u);
  EXPECT_EQ(clean->deltas[0].payload, "alpha");
}

TEST(FaultyDeltaSourceTest, TruncatesDuplicatesAndGarblesBatches) {
  InProcessDeltaSource base({}, 0);
  base.Ship(0, "alpha");
  base.Ship(1, "beta");
  base.Ship(2, "gamma");
  const std::vector<std::string> shipped = {"alpha", "beta", "gamma"};

  DeltaFaultPlan plan;
  plan.truncate_prob = 1.0;
  FaultyDeltaSource faulty(plan, &base);
  auto truncated = faulty.Fetch(0, 16);
  ASSERT_TRUE(truncated.ok());
  ASSERT_GE(truncated->deltas.size(), 1u);
  EXPECT_LT(truncated->deltas.size(), 3u);  // a proper, non-empty prefix
  for (size_t i = 0; i < truncated->deltas.size(); ++i) {
    EXPECT_EQ(truncated->deltas[i].lsn, i);  // still contiguous from cursor
    EXPECT_EQ(truncated->deltas[i].payload, shipped[i]);
  }
  EXPECT_EQ(faulty.counters().truncated_batches, 1u);

  plan = DeltaFaultPlan{};
  plan.duplicate_prob = 1.0;
  faulty.SetPlan(plan);
  auto duplicated = faulty.Fetch(0, 16);
  ASSERT_TRUE(duplicated.ok());
  ASSERT_EQ(duplicated->deltas.size(), 4u);
  EXPECT_EQ(duplicated->deltas[0].lsn, duplicated->deltas[1].lsn);
  EXPECT_EQ(duplicated->deltas[0].payload, duplicated->deltas[1].payload);
  EXPECT_EQ(faulty.counters().duplicated_frames, 1u);

  plan = DeltaFaultPlan{};
  plan.garble_prob = 1.0;
  faulty.SetPlan(plan);
  auto garbled = faulty.Fetch(0, 16);
  ASSERT_TRUE(garbled.ok());
  ASSERT_EQ(garbled->deltas.size(), 3u);
  size_t mismatches = 0;
  for (size_t i = 0; i < 3; ++i) {
    if (garbled->deltas[i].payload != shipped[i]) {
      ++mismatches;
      // The flip lands in the record-kind header byte, where ApplyDelta is
      // guaranteed to detect it.
      EXPECT_EQ(garbled->deltas[i].payload.substr(1), shipped[i].substr(1));
    }
  }
  EXPECT_EQ(mismatches, 1u);
  EXPECT_EQ(faulty.counters().garbled_frames, 1u);

  // Faults mangle the fetched copy, never the source: a clean refetch sees
  // pristine frames.
  faulty.SetPlan({});
  auto clean = faulty.Fetch(0, 16);
  ASSERT_TRUE(clean.ok());
  ASSERT_EQ(clean->deltas.size(), 3u);
  for (size_t i = 0; i < 3; ++i) EXPECT_EQ(clean->deltas[i].payload, shipped[i]);
}

TEST(FaultyDeltaSourceTest, FaultStreamIsDeterministicPerSeed) {
  auto draw_sequence = [](uint64_t seed) {
    InProcessDeltaSource base({}, 0);
    for (uint64_t i = 0; i < 6; ++i) {
      base.Ship(i, "rec-" + std::to_string(i));
    }
    DeltaFaultPlan plan;
    plan.fetch_error_prob = 0.4;
    plan.truncate_prob = 0.5;
    plan.duplicate_prob = 0.3;
    plan.seed = seed;
    FaultyDeltaSource faulty(plan, &base);
    std::vector<size_t> sizes;
    for (int i = 0; i < 12; ++i) {
      auto got = faulty.Fetch(0, 16);
      sizes.push_back(got.ok() ? got->deltas.size() : 0);
    }
    return sizes;
  };

  EXPECT_EQ(draw_sequence(11), draw_sequence(11));
  EXPECT_NE(draw_sequence(11), draw_sequence(12));
}

// ---------------------------------------------------------------------------
// Fleet self-healing: quarantine + auto-restart against a poisoned
// transport.
// ---------------------------------------------------------------------------

TEST(FleetResilienceTest, WatchdogQuarantinesAndAutoRestartsPoisonedReplica) {
  gen::CollaborationConfig cfg;
  cfg.num_people = 48;
  cfg.num_teams = 8;
  InProcessDeltaSource source({}, 0);
  FleetHarness primary(gen::CollaborationNetwork(cfg), &source);

  // Every fetched frame arrives garbled: Apply fails with Corruption each
  // round, so only quarantine + re-anchoring (which bypasses the transport)
  // can move this replica forward.
  DeltaFaultPlan plan;
  plan.garble_prob = 1.0;
  plan.seed = 7;
  FaultyDeltaSource faulty(plan, &source);

  FakeClock clock;  // backoff runs at test speed
  FleetOptions fopts;
  fopts.num_replicas = 1;
  fopts.poll_interval_ms = 1.0;
  fopts.health.quarantine_after_failures = 2;
  fopts.health.backoff_initial_ms = 5.0;
  fopts.health.clock = &clock;
  ReplicaFleet fleet(fopts, &faulty, [&] { return primary.Install(); });
  fleet.Start();
  ASSERT_TRUE(WaitFor([&] { return fleet.Replicas()[0].alive; }, 5000.0));

  primary.ShipBatch(GenerateUpdateStream(primary.graph(), 8, 0.5, 501));
  uint64_t target = primary.version();

  // The poisoned fetch path can never apply; the watchdog quarantines after
  // 2 consecutive Corruption failures and the auto-restart re-anchors via a
  // fresh snapshot install, which lands at the primary's current version.
  ASSERT_TRUE(WaitFor(
      [&] {
        auto rs = fleet.Replicas()[0];
        return rs.alive && rs.version == target;
      },
      5000.0))
      << "quarantined replica never auto-restarted to version " << target;
  EXPECT_GE(fleet.Replicas()[0].quarantines, 1u);
  EXPECT_GE(fleet.Replicas()[0].auto_restarts, 1u);
  EXPECT_GE(fleet.health(0).quarantines(), 1u);
  EXPECT_GE(fleet.Replicas()[0].installs, 2u);  // bootstrap + re-anchor
  EXPECT_GE(faulty.counters().garbled_frames, 1u);

  // Disarm the faults: the replica now applies deltas cleanly again.
  faulty.SetPlan({});
  primary.ShipBatch(GenerateUpdateStream(primary.graph(), 8, 0.5, 502));
  target = primary.version();
  ASSERT_TRUE(WaitFor(
      [&] {
        auto rs = fleet.Replicas()[0];
        return rs.alive && rs.version == target;
      },
      5000.0))
      << "replica never converged after faults were disarmed";

  fleet.Stop();
  EXPECT_EQ(GraphText(fleet.replica(0).graph()), GraphText(primary.graph()));
}

TEST(FleetResilienceTest, ReanchorNeverMovesReplicaBehindItsState) {
  gen::CollaborationConfig cfg;
  cfg.num_people = 48;
  cfg.num_teams = 8;
  InProcessDeltaSource source({}, 0);
  FleetHarness primary(gen::CollaborationNetwork(cfg), &source);

  // A checkpoint at LSN 1, then one more record: the head is past it.
  primary.ShipBatch(GenerateUpdateStream(primary.graph(), 8, 0.5, 601));
  const std::string dir = ::testing::TempDir() + "/fleet_reanchor_checkpoint";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  CheckpointOptions copts;
  copts.dir = dir;
  const ReplicaBootstrap checkpointed = primary.Install();
  ASSERT_TRUE(WriteCheckpoint(copts, checkpointed.graph, checkpointed.next_lsn).ok());
  primary.ShipBatch(GenerateUpdateStream(primary.graph(), 8, 0.5, 602));
  const uint64_t head = primary.version();
  ASSERT_NE(head, checkpointed.graph.version());

  FaultyDeltaSource faulty({}, &source);
  FleetOptions fopts;
  fopts.num_replicas = 1;
  fopts.poll_interval_ms = 1.0;
  fopts.checkpoint_dir = dir;
  ReplicaFleet fleet(fopts, &faulty, [&] { return primary.Install(); });
  fleet.Start();
  // Bootstrap from the checkpoint, then replay the tail to the head.
  ASSERT_TRUE(WaitFor(
      [&] {
        auto rs = fleet.Replicas()[0];
        return rs.alive && rs.version == head;
      },
      5000.0));

  // Every fetch now claims a lost prefix, so every round re-anchors. The
  // newest checkpoint is behind the replica's state: loading it would roll
  // the replica back to the checkpoint's version, so the snapshot install
  // must win.
  DeltaFaultPlan lost;
  lost.lost_prefix_prob = 1.0;
  faulty.SetPlan(lost);
  ASSERT_TRUE(WaitFor([&] { return fleet.Replicas()[0].rebootstraps >= 2; }, 5000.0));
  EXPECT_EQ(fleet.Replicas()[0].version, head);
  fleet.Stop();
  EXPECT_EQ(fleet.replica(0).version(), head);
  EXPECT_EQ(GraphText(fleet.replica(0).graph()), GraphText(primary.graph()));
}

// ---------------------------------------------------------------------------
// Fail-fast Acquire (satellite a): unrecoverable fleets return immediately,
// and waiters are woken on replica death.
// ---------------------------------------------------------------------------

TEST(FleetResilienceTest, AcquireFailsFastWhenFleetIsUnrecoverable) {
  gen::CollaborationConfig cfg;
  cfg.num_people = 48;
  cfg.num_teams = 8;
  InProcessDeltaSource source({}, 0);
  FleetHarness primary(gen::CollaborationNetwork(cfg), &source);

  FleetOptions fopts;
  fopts.num_replicas = 1;
  fopts.poll_interval_ms = 1.0;
  ReplicaFleet fleet(fopts, &source, [&] { return primary.Install(); });
  fleet.Start();
  ASSERT_TRUE(WaitFor([&] { return fleet.Replicas()[0].alive; }, 5000.0));
  EXPECT_TRUE(fleet.Recoverable());

  fleet.StopReplica(0);
  EXPECT_FALSE(fleet.Recoverable());

  // A 5-second deadline must NOT be waited out: nothing can revive the
  // fleet but operator action, so Acquire reports kUnavailable immediately.
  const auto start = std::chrono::steady_clock::now();
  AcquireOutcome outcome = AcquireOutcome::kOk;
  auto snap = fleet.Acquire(primary.version() + 100, 5000.0, nullptr, &outcome);
  EXPECT_EQ(snap, nullptr);
  EXPECT_EQ(outcome, AcquireOutcome::kUnavailable);
  EXPECT_LT(ElapsedMs(start), 1000.0) << "fail-fast path burned the deadline";

  // Even a no-wait probe reports unavailability (not a mere miss).
  outcome = AcquireOutcome::kOk;
  EXPECT_EQ(fleet.Acquire(0, 0.0, nullptr, &outcome), nullptr);
  EXPECT_EQ(outcome, AcquireOutcome::kUnavailable);

  // Operator intervention makes the fleet recoverable (and servable) again.
  fleet.RestartReplica(0);
  EXPECT_TRUE(fleet.Recoverable());
  outcome = AcquireOutcome::kUnavailable;
  snap = fleet.Acquire(primary.version(), 5000.0, nullptr, &outcome);
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(outcome, AcquireOutcome::kOk);
  fleet.Stop();
}

TEST(FleetResilienceTest, AcquireWaiterIsWokenByReplicaDeath) {
  gen::CollaborationConfig cfg;
  cfg.num_people = 48;
  cfg.num_teams = 8;
  InProcessDeltaSource source({}, 0);
  FleetHarness primary(gen::CollaborationNetwork(cfg), &source);

  FleetOptions fopts;
  fopts.num_replicas = 1;
  fopts.poll_interval_ms = 1.0;
  ReplicaFleet fleet(fopts, &source, [&] { return primary.Install(); });
  fleet.Start();
  ASSERT_TRUE(WaitFor([&] { return fleet.Replicas()[0].alive; }, 5000.0));

  // The waiter's floor is unreachable; only the kill can release it before
  // the (deliberately long) deadline.
  const auto start = std::chrono::steady_clock::now();
  AcquireOutcome outcome = AcquireOutcome::kOk;
  std::shared_ptr<const EngineSnapshot> snap;
  std::thread waiter([&] {
    snap = fleet.Acquire(primary.version() + 1000, 10000.0, nullptr, &outcome);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  fleet.StopReplica(0);
  waiter.join();

  EXPECT_EQ(snap, nullptr);
  EXPECT_EQ(outcome, AcquireOutcome::kUnavailable);
  EXPECT_LT(ElapsedMs(start), 5000.0) << "wake-on-death never fired";
  fleet.Stop();
}

// ---------------------------------------------------------------------------
// Stop/Restart racing Acquire waiters and routed reads (satellite c): run
// under TSan via the concurrency label.
// ---------------------------------------------------------------------------

TEST(FleetResilienceTest, ConcurrentStopRestartRacesAcquireAndRoutedReads) {
  gen::CollaborationConfig cfg;
  cfg.num_people = 48;
  cfg.num_teams = 8;
  InProcessDeltaSource source({}, 0);
  FleetHarness primary(gen::CollaborationNetwork(cfg), &source);

  FleetOptions fopts;
  fopts.num_replicas = 3;
  fopts.poll_interval_ms = 1.0;
  ReplicaFleet fleet(fopts, &source, [&] { return primary.Install(); });
  fleet.Start();
  ASSERT_TRUE(WaitFor(
      [&] {
        auto rs = fleet.Replicas();
        return rs[0].alive && rs[1].alive && rs[2].alive;
      },
      5000.0));

  std::atomic<bool> done{false};
  std::atomic<uint64_t> last_version{primary.version()};
  std::thread writer([&] {
    for (int b = 0; b < 8; ++b) {
      primary.ShipBatch(GenerateUpdateStream(primary.graph(), 6, 0.5, 900 + b));
      last_version.store(primary.version());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    done.store(true);
  });

  // Kill and revive replicas 1 and 2 while readers route; replica 0 stays
  // up, so the fleet is always recoverable (kUnavailable never surfaces).
  std::thread chaos([&] {
    for (int round = 0; round < 6; ++round) {
      fleet.StopReplica(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      fleet.RestartReplica(1);
      fleet.StopReplica(2);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      fleet.RestartReplica(2);
    }
  });

  std::vector<std::thread> readers;
  for (size_t t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      size_t reads = 0;
      while (!done.load() || reads < 20) {
        if (reads >= 300) break;
        const uint64_t floor = (reads % 3 == 0) ? last_version.load() : 0;
        size_t idx = 99;
        AcquireOutcome outcome = AcquireOutcome::kOk;
        auto snap = fleet.Acquire(floor, 20.0, &idx, &outcome);
        if (snap != nullptr) {
          EXPECT_EQ(outcome, AcquireOutcome::kOk);
          EXPECT_LT(idx, 3u);
          EXPECT_GE(snap->version, floor);
        } else {
          // Replica 0 never stops, so a miss is always a plain timeout.
          EXPECT_EQ(outcome, AcquireOutcome::kTimeout);
        }
        ++reads;
      }
    });
  }

  writer.join();
  chaos.join();
  for (std::thread& r : readers) r.join();

  // Leave every replica running, converge, and check bit-identity.
  fleet.RestartReplica(1);
  fleet.RestartReplica(2);
  const uint64_t target = primary.version();
  ASSERT_TRUE(WaitFor(
      [&] {
        auto rs = fleet.Replicas();
        for (const ReplicaStatus& r : rs) {
          if (!r.alive || r.version != target) return false;
        }
        return true;
      },
      10000.0))
      << "fleet never converged on version " << target;
  fleet.Stop();
  const std::string primary_text = GraphText(primary.graph());
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(GraphText(fleet.replica(i).graph()), primary_text)
        << "replica " << i;
  }
}

// ---------------------------------------------------------------------------
// Service integration: kUnavailable mapping (satellite b) and the
// read-resilience ladder.
// ---------------------------------------------------------------------------

TEST(ServiceResilienceTest, FleetExhaustionMapsToUnavailable) {
  gen::CollaborationConfig cfg;
  cfg.num_people = 48;
  cfg.num_teams = 8;
  Graph g = gen::CollaborationNetwork(cfg);

  ServiceOptions opts;
  opts.replication.num_replicas = 1;
  opts.replication.poll_interval_ms = 1.0;
  opts.replication.max_staleness_wait_ms = 50.0;
  opts.replication.fallback_to_primary = false;
  ExpFinderService service(&g, opts);
  ASSERT_NE(service.fleet(), nullptr);
  ASSERT_TRUE(
      WaitFor([&] { return service.fleet()->Replicas()[0].alive; }, 5000.0));

  QueryRequest req;
  req.pattern = gen::TeamQuery(0);
  req.use_cache = false;

  // Healthy fleet: the read routes normally.
  ASSERT_TRUE(service.Query(req).ok());

  // Kill the only replica: with primary fallback off, the read cannot be
  // served at all — and says so with kUnavailable, not a deadline miss.
  service.fleet()->StopReplica(0);
  const ServiceStats before = service.stats();
  auto down = service.Query(req);
  ASSERT_FALSE(down.ok());
  EXPECT_TRUE(down.status().IsUnavailable()) << down.status();
  EXPECT_NE(down.status().ToString().find("replica fleet unavailable"),
            std::string::npos)
      << down.status();
  // The terminal counters only grow, so one more classified request and
  // one more `unavailable` mean no other counter moved.
  const ServiceStats after = service.stats();
  EXPECT_EQ(after.unavailable - before.unavailable, 1u);
  EXPECT_EQ(after.ClassifiedQueries() - before.ClassifiedQueries(), 1u);

  // Operator restart restores service.
  service.fleet()->RestartReplica(0);
  ASSERT_TRUE(
      WaitFor([&] { return service.fleet()->Replicas()[0].alive; }, 5000.0));
  ASSERT_TRUE(service.Query(req).ok());

  ServiceStats s = service.stats();
  EXPECT_EQ(s.queries, 3u);
  EXPECT_EQ(s.unavailable, 1u);
  EXPECT_EQ(s.routed_reads, 2u);
  EXPECT_EQ(s.rejected, 0u);
  EXPECT_EQ(s.ClassifiedQueries(), s.queries);
  EXPECT_NE(s.ToString().find("unavailable=1"), std::string::npos)
      << s.ToString();
}

TEST(ServiceResilienceTest, CacheHitNeedsNoReplica) {
  // A hit evaluates nothing, so Submit serves it at the primary epoch even
  // with primary fallback off; a read with work left still needs the fleet.
  gen::CollaborationConfig cfg;
  cfg.num_people = 48;
  cfg.num_teams = 8;
  Graph g = gen::CollaborationNetwork(cfg);

  ServiceOptions opts;
  opts.replication.num_replicas = 1;
  opts.replication.poll_interval_ms = 1.0;
  opts.replication.max_staleness_wait_ms = 50.0;
  opts.replication.fallback_to_primary = false;
  ExpFinderService service(&g, opts);
  ASSERT_NE(service.fleet(), nullptr);
  const uint64_t v0 = service.version();
  ASSERT_TRUE(WaitFor(
      [&] {
        auto rs = service.fleet()->Replicas();
        return rs[0].alive && rs[0].version == v0;
      },
      5000.0));

  QueryRequest cached;
  cached.pattern = gen::TeamQuery(0);
  auto warm = service.Query(cached);  // a miss: routed, cached at v0
  ASSERT_TRUE(warm.ok()) << warm.status();
  ASSERT_EQ(warm->graph_version, v0);

  service.fleet()->StopReplica(0);
  const ServiceStats before = service.stats();
  auto hit = service.Query(cached);
  ASSERT_TRUE(hit.ok()) << hit.status();
  EXPECT_EQ(hit->path, ServingPath::kCache);
  EXPECT_EQ(hit->graph_version, service.version());
  EXPECT_EQ(hit->answer.get(), warm->answer.get());

  QueryRequest uncached = cached;
  uncached.use_cache = false;
  auto down = service.Query(uncached);
  ASSERT_FALSE(down.ok());
  EXPECT_TRUE(down.status().IsUnavailable()) << down.status();

  const ServiceStats after = service.stats();
  EXPECT_EQ(after.cache_hits - before.cache_hits, 1u);
  EXPECT_EQ(after.unavailable - before.unavailable, 1u);
  EXPECT_EQ(after.routed_reads, before.routed_reads);  // the hit was not routed
  EXPECT_EQ(after.routed_fallbacks, 0u);
  EXPECT_EQ(after.ClassifiedQueries(), after.queries);
}

TEST(ServiceResilienceTest, LadderRetriesAndRelaxesStaleness) {
  gen::CollaborationConfig cfg;
  cfg.num_people = 48;
  cfg.num_teams = 8;
  Graph g = gen::CollaborationNetwork(cfg);

  ServiceOptions opts;
  opts.replication.num_replicas = 2;
  opts.replication.poll_interval_ms = 1.0;
  opts.replication.max_staleness_wait_ms = 40.0;
  opts.replication.fallback_to_primary = false;
  opts.replication.read_retries = 2;
  opts.replication.retry_wait_ms = 5.0;
  opts.replication.relax_staleness_versions = 1u << 20;  // floor clamps to 0
  // Transport permanently down, but quarantine disabled: the replicas stay
  // alive (and recoverable) frozen at their bootstrap version.
  opts.replication.delta_faults.fetch_error_prob = 1.0;
  opts.replication.health.quarantine_after_failures = 0;
  ExpFinderService service(&g, opts);
  ASSERT_NE(service.fleet(), nullptr);
  ASSERT_NE(service.delta_faults(), nullptr);

  const uint64_t v0 = service.version();
  ASSERT_TRUE(WaitFor(
      [&] {
        auto rs = service.fleet()->Replicas();
        return rs[0].alive && rs[1].alive && rs[0].version == v0 &&
               rs[1].version == v0;
      },
      5000.0));

  // Advance the primary; the replicas can never follow (every fetch fails).
  ASSERT_TRUE(service.Mutate(GenerateUpdateStream(service.graph(), 6, 0.5, 77))
                  .ok());
  const uint64_t v1 = service.version();
  ASSERT_GT(v1, v0);

  // A read floored at v1 walks the whole ladder: the budgeted wait and two
  // retries all miss, then the staleness relaxation probe accepts the
  // bounded-stale replica at v0. The response reports the true version
  // served, so the caller can see the relaxation.
  QueryRequest req;
  req.pattern = gen::TeamQuery(0);
  req.use_cache = false;
  req.min_version = v1;
  auto resp = service.Query(req);
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_EQ(resp->graph_version, v0);

  ServiceStats s = service.stats();
  EXPECT_EQ(s.retried_reads, 2u);
  EXPECT_EQ(s.relaxed_reads, 1u);
  EXPECT_EQ(s.routed_reads, 1u);
  EXPECT_EQ(s.routed_fallbacks, 0u);
  EXPECT_GT(service.delta_faults()->counters().fetch_errors, 0u);
  EXPECT_EQ(s.ClassifiedQueries(), s.queries);
  EXPECT_NE(s.ToString().find("retried_reads=2 relaxed_reads=1"), std::string::npos)
      << s.ToString();
}

TEST(ServiceResilienceTest, LadderFallsBackToPrimaryWhenRelaxationIsOff) {
  gen::CollaborationConfig cfg;
  cfg.num_people = 48;
  cfg.num_teams = 8;
  Graph g = gen::CollaborationNetwork(cfg);

  ServiceOptions opts;
  opts.replication.num_replicas = 2;
  opts.replication.poll_interval_ms = 1.0;
  opts.replication.max_staleness_wait_ms = 30.0;
  opts.replication.fallback_to_primary = true;
  opts.replication.read_retries = 1;
  opts.replication.retry_wait_ms = 5.0;
  opts.replication.relax_staleness_versions = 0;  // strict floors
  opts.replication.delta_faults.fetch_error_prob = 1.0;
  opts.replication.health.quarantine_after_failures = 0;
  ExpFinderService service(&g, opts);
  ASSERT_NE(service.fleet(), nullptr);

  const uint64_t v0 = service.version();
  ASSERT_TRUE(WaitFor(
      [&] {
        auto rs = service.fleet()->Replicas();
        return rs[0].alive && rs[1].alive && rs[0].version == v0 &&
               rs[1].version == v0;
      },
      5000.0));
  ASSERT_TRUE(service.Mutate(GenerateUpdateStream(service.graph(), 6, 0.5, 78))
                  .ok());
  const uint64_t v1 = service.version();

  // The budgeted wait and the retry both miss; with strict floors the
  // replica tier is abandoned and the primary (which has v1 by definition)
  // serves the read.
  QueryRequest req;
  req.pattern = gen::TeamQuery(0);
  req.use_cache = false;
  req.min_version = v1;
  auto resp = service.Query(req);
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_GE(resp->graph_version, v1);

  ServiceStats s = service.stats();
  EXPECT_EQ(s.retried_reads, 1u);
  EXPECT_EQ(s.relaxed_reads, 0u);
  EXPECT_EQ(s.routed_fallbacks, 1u);
  EXPECT_EQ(s.routed_reads, 0u);
  EXPECT_EQ(s.ClassifiedQueries(), s.queries);
}

}  // namespace
}  // namespace expfinder
