// Randomized crash-recovery sweep: >= 200 injected fault points (torn
// writes at a byte budget, failed fsyncs, in-flight bit flips) across
// randomized workloads. After every injected fault, recovery with a clean
// filesystem must produce a graph equal to some batch prefix of the serial
// replay oracle — never a torn half-batch, never an abort — and under
// per-record fsync every acknowledged mutation must be in that prefix.
//
// EXPFINDER_CRASH_SEED offsets the seed space so the CI stress loop covers
// fresh fault points on every iteration.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/graph/graph_io.h"
#include "src/incremental/update.h"
#include "src/storage/durable_graph.h"
#include "src/storage/fault_env.h"

namespace expfinder {
namespace {

constexpr size_t kOpsPerTrial = 12;
constexpr size_t kCheckpointEveryOps = 4;

std::string GraphText(const Graph& g) {
  std::ostringstream os;
  EXPECT_TRUE(SaveGraphText(g, os).ok());
  return os.str();
}

uint64_t BaseSeed() {
  const char* env = std::getenv("EXPFINDER_CRASH_SEED");
  return env ? std::strtoull(env, nullptr, 10) : 0;
}

/// One logged mutation: an edge batch or a node addition.
struct Op {
  bool is_batch = true;
  UpdateBatch batch;
  NodeId id = 0;
  std::string label;
  std::vector<std::pair<std::string, AttrValue>> attrs;
};

Graph MakeBase() {
  // Roomy enough that GenerateUpdateStream can always sample absent pairs
  // even after every insert-heavy workload this sweep generates.
  Graph g;
  const char* labels[] = {"HR", "DM", "PRG", "ST", "SE", "PM", "QA", "UX"};
  for (const char* label : labels) g.AddNode(label);
  for (NodeId v = 0; v + 1 < 8; ++v) EXPECT_TRUE(g.AddEdge(v, v + 1).ok());
  return g;
}

/// Deterministic workload for `seed`: the ops plus the serial-replay-oracle
/// graph text after every prefix (prefix_texts[k] = base + ops[0..k)).
std::vector<Op> MakeWorkload(uint64_t seed, std::vector<std::string>* prefix_texts) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 1);
  Graph cur = MakeBase();
  prefix_texts->clear();
  prefix_texts->push_back(GraphText(cur));
  std::vector<Op> ops;
  for (size_t i = 0; i < kOpsPerTrial; ++i) {
    Op op;
    if (rng() % 10 < 7) {
      op.is_batch = true;
      const size_t count = 1 + rng() % 3;
      const uint64_t stream_seed = rng();
      op.batch = GenerateUpdateStream(cur, count, 0.6, stream_seed);
      EXPECT_TRUE(ApplyBatch(&cur, op.batch).ok());
    } else {
      op.is_batch = false;
      op.id = static_cast<NodeId>(cur.NumNodes());
      op.label = "N" + std::to_string(i);
      op.attrs = {{"step", AttrValue(static_cast<int64_t>(i))}};
      NodeId got = cur.AddNode(op.label);
      EXPECT_EQ(got, op.id);
      for (const auto& [key, value] : op.attrs) cur.SetAttr(got, key, value);
    }
    ops.push_back(std::move(op));
    prefix_texts->push_back(GraphText(cur));
  }
  return ops;
}

DurabilityOptions TrialOptions(const std::string& dir, FileOps* fops) {
  DurabilityOptions o;
  o.dir = dir;
  o.file_ops = fops;
  o.fsync_policy = FsyncPolicy::kEveryRecord;
  o.segment_bytes = 96;               // several rotations per trial
  o.checkpoint_every_n_batches = 0;   // the harness checkpoints explicitly
  return o;
}

/// Runs one trial: seed the directory cleanly, run the workload through
/// fault-injecting file ops, then recover with clean ops and check prefix
/// consistency. Returns the acked-op count via `acked`; `strict_acked`
/// demands every acked op in the recovered prefix unconditionally (crash /
/// fsync faults — under bit flips, loss of acked sealed data is possible
/// but must then be flagged).
void RunTrial(uint64_t seed, const FaultPlan& plan, bool strict_acked) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  const std::string dir = ::testing::TempDir() + "/crash_sweep/s" +
                          std::to_string(seed) + "_" +
                          std::to_string(plan.crash_after_bytes) + "_" +
                          std::to_string(plan.fail_sync_at_count) + "_" +
                          std::to_string(plan.flip_bit_at_byte);
  std::filesystem::remove_all(dir);  // stale state from a previous run
  ASSERT_TRUE(FileOps::Real()->CreateDirs(dir).ok());

  std::vector<std::string> prefix_texts;
  std::vector<Op> ops = MakeWorkload(seed, &prefix_texts);

  // Seed the durable state cleanly so every injected fault lands in the
  // mutation stream, not in the initial bring-up.
  {
    Graph g = MakeBase();
    GraphRecoveryInfo info;
    auto d = DurableGraph::Open(TrialOptions(dir, nullptr), &g, &info);
    ASSERT_TRUE(d.ok()) << d.status();
  }

  // The faulty run: the "process" that will crash.
  size_t acked = 0;
  {
    FaultyFileOps faulty(plan);
    Graph g = MakeBase();
    GraphRecoveryInfo info;
    auto d = DurableGraph::Open(TrialOptions(dir, &faulty), &g, &info);
    ASSERT_TRUE(d.ok()) << d.status();  // recovery reads are fault-free here
    for (size_t i = 0; i < ops.size(); ++i) {
      const Op& op = ops[i];
      Status logged;
      if (op.is_batch) {
        ASSERT_TRUE(ApplyBatch(&g, op.batch).ok());
        logged = (*d)->LogBatch(op.batch);
      } else {
        NodeId got = g.AddNode(op.label);
        ASSERT_EQ(got, op.id);
        for (const auto& [key, value] : op.attrs) g.SetAttr(got, key, value);
        logged = (*d)->AppendRecord(DurableGraph::EncodeAddNode(op.id, op.label, op.attrs));
      }
      if (logged.ok()) acked = i + 1;  // append + per-record fsync => durable
      if ((i + 1) % kCheckpointEveryOps == 0) {
        // Periodic checkpoint; its failure under injection is ignored, the
        // way the service treats a failed background checkpoint.
        (void)(*d)->Checkpoint(g, (*d)->next_lsn());
      }
    }
  }

  // "Reboot": recovery through the real filesystem must never abort and
  // must land on a serial-replay prefix.
  Graph recovered;
  GraphRecoveryInfo info;
  auto d = DurableGraph::Open(TrialOptions(dir, nullptr), &recovered, &info);
  ASSERT_TRUE(d.ok()) << d.status();
  const std::string text = GraphText(recovered);
  size_t prefix = prefix_texts.size();  // find the LAST matching prefix
  for (size_t k = prefix_texts.size(); k-- > 0;) {
    if (prefix_texts[k] == text) {
      prefix = k;
      break;
    }
  }
  ASSERT_LT(prefix, prefix_texts.size())
      << "recovered graph matches no serial-replay prefix; info: " << info.detail;
  if (strict_acked) {
    EXPECT_GE(prefix, acked) << "acknowledged mutations lost; info: "
                             << info.detail;
  } else if (prefix < acked) {
    // A bit flip may destroy acked sealed data — but never silently.
    EXPECT_TRUE(info.data_loss || info.tail_truncated ||
                info.corrupt_checkpoints_skipped > 0)
        << "acked mutations lost without any loss being reported";
  }

  // The recovered state must itself be durable: a second clean recovery
  // lands on the same graph.
  Graph again;
  GraphRecoveryInfo info2;
  auto d2 = DurableGraph::Open(TrialOptions(dir, nullptr), &again, &info2);
  ASSERT_TRUE(d2.ok()) << d2.status();
  EXPECT_EQ(GraphText(again), text);
}

TEST(CrashRecoverySweepTest, TornWritesAtRandomByteBudgets) {
  const uint64_t base = BaseSeed();
  std::mt19937_64 rng(base + 0xC0FFEE);
  for (uint64_t i = 0; i < 120; ++i) {
    FaultPlan plan;
    plan.crash_after_bytes = 1 + static_cast<int64_t>(rng() % 2500);
    RunTrial(base + i, plan, /*strict_acked=*/true);
  }
}

TEST(CrashRecoverySweepTest, FailedFsyncsAreNotAcked) {
  const uint64_t base = BaseSeed();
  std::mt19937_64 rng(base + 0xFADE);
  for (uint64_t i = 0; i < 50; ++i) {
    FaultPlan plan;
    plan.fail_sync_at_count = 1 + rng() % 24;
    RunTrial(base + 1000 + i, plan, /*strict_acked=*/true);
  }
}

TEST(CrashRecoverySweepTest, BitFlipsNeverGoUnnoticed) {
  const uint64_t base = BaseSeed();
  std::mt19937_64 rng(base + 0xBEEF);
  for (uint64_t i = 0; i < 40; ++i) {
    FaultPlan plan;
    plan.flip_bit_at_byte = static_cast<int64_t>(rng() % 2500);
    plan.flip_bit_mask = static_cast<uint8_t>(1u << (rng() % 8));
    RunTrial(base + 2000 + i, plan, /*strict_acked=*/false);
  }
}

TEST(CrashRecoverySweepTest, CombinedCrashAndRenameFailure) {
  const uint64_t base = BaseSeed();
  std::mt19937_64 rng(base + 0xD00D);
  for (uint64_t i = 0; i < 20; ++i) {
    FaultPlan plan;
    plan.crash_after_bytes = 200 + static_cast<int64_t>(rng() % 2000);
    plan.fail_rename_at_count = 1 + rng() % 3;  // checkpoint renames fail too
    RunTrial(base + 3000 + i, plan, /*strict_acked=*/true);
  }
}

}  // namespace
}  // namespace expfinder
