#include <gtest/gtest.h>

#include "src/compression/maintenance.h"
#include "src/generator/generators.h"
#include "src/incremental/update.h"
#include "src/matching/bounded_simulation.h"

namespace expfinder {
namespace {

CompressionSchema ExperienceSchema() { return {true, {"experience"}}; }

TEST(MaintenanceTest, CreateBuildsStablePartition) {
  Graph g = gen::CollaborationNetwork({.num_people = 150, .num_teams = 30, .seed = 2});
  auto mc = MaintainedCompression::Create(&g, ExperienceSchema());
  ASSERT_TRUE(mc.ok()) << mc.status();
  EXPECT_TRUE(IsStablePartition(g, mc->current().partition()));
  EXPECT_EQ(mc->current().source_version(), g.version());
}

TEST(MaintenanceTest, RejectsBadRebuildFactor) {
  Graph g = gen::BuildFig1Graph();
  EXPECT_TRUE(
      MaintainedCompression::Create(&g, ExperienceSchema(), 0.5).status()
          .IsInvalidArgument());
}

TEST(MaintenanceTest, StaysStableAcrossUpdates) {
  Graph g = gen::TwitterLike({.n = 300, .out_per_node = 4, .seed = 4});
  auto mc = MaintainedCompression::Create(&g, ExperienceSchema());
  ASSERT_TRUE(mc.ok());
  UpdateBatch stream = GenerateUpdateStream(g, 60, 0.5, 5);
  for (size_t i = 0; i < stream.size(); i += 10) {
    UpdateBatch batch(stream.begin() + i, stream.begin() + i + 10);
    ASSERT_TRUE(ApplyBatch(&g, batch).ok());
    mc->OnGraphUpdated(batch);
    ASSERT_TRUE(IsStablePartition(g, mc->current().partition())) << "step " << i;
    ASSERT_EQ(mc->current().source_version(), g.version());
  }
  EXPECT_EQ(mc->num_maintenances(), 6u);
}

TEST(MaintenanceTest, QueriesPreservedAfterMaintenance) {
  Graph g = gen::ErdosRenyi(80, 320, 6);
  auto mc = MaintainedCompression::Create(&g, ExperienceSchema());
  ASSERT_TRUE(mc.ok());
  UpdateBatch stream = GenerateUpdateStream(g, 40, 0.5, 7);
  for (size_t i = 0; i < stream.size(); i += 8) {
    UpdateBatch batch(stream.begin() + i, stream.begin() + i + 8);
    ASSERT_TRUE(ApplyBatch(&g, batch).ok());
    mc->OnGraphUpdated(batch);
    const CompressedGraph& cg = mc->current();
    for (int j = 0; j < 2; ++j) {
      Pattern q = gen::RandomPattern(4, 4, 3, 0.4, i * 13 + j);
      ASSERT_TRUE(cg.IsCompatible(q));
      EXPECT_TRUE(cg.Decompress(ComputeBoundedSimulation(cg.gc(), q)) ==
                  ComputeBoundedSimulation(g, q))
          << "step " << i << " query " << j;
    }
  }
}

TEST(MaintenanceTest, RebuildRestoresCoarseness) {
  Graph g = gen::ErdosRenyi(100, 300, 8);
  auto mc = MaintainedCompression::Create(&g, ExperienceSchema());
  ASSERT_TRUE(mc.ok());
  uint32_t initial_classes = mc->current().NumClasses();
  // Heavy churn degrades the maintained partition (splits only).
  UpdateBatch stream = GenerateUpdateStream(g, 150, 0.5, 9);
  ASSERT_TRUE(ApplyBatch(&g, stream).ok());
  mc->OnGraphUpdated(stream);
  uint32_t maintained_classes = mc->current().NumClasses();
  mc->Rebuild();
  EXPECT_LE(mc->current().NumClasses(), maintained_classes);
  EXPECT_GE(mc->num_rebuilds(), 1u);
  (void)initial_classes;
}

TEST(MaintenanceTest, AutoRebuildTriggersOnDrift) {
  Graph g = gen::ErdosRenyi(120, 240, 10);
  // Aggressive factor: any growth triggers rebuild.
  auto mc = MaintainedCompression::Create(&g, ExperienceSchema(), 1.0);
  ASSERT_TRUE(mc.ok());
  UpdateBatch stream = GenerateUpdateStream(g, 100, 0.7, 11);
  ASSERT_TRUE(ApplyBatch(&g, stream).ok());
  mc->OnGraphUpdated(stream);
  // Either the partition stayed put or a rebuild fired; both keep stability.
  EXPECT_TRUE(IsStablePartition(g, mc->current().partition()));
}

}  // namespace
}  // namespace expfinder
