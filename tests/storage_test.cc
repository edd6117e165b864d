#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "src/generator/generators.h"
#include "src/graph/graph_io.h"
#include "src/matching/bounded_simulation.h"
#include "src/storage/graph_store.h"
#include "src/util/crc32c.h"
#include "src/util/string_util.h"

namespace expfinder {
namespace {

class StoreFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/store_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    auto store = GraphStore::Open(dir_);
    ASSERT_TRUE(store.ok()) << store.status();
    store_ = std::make_unique<GraphStore>(std::move(store).value());
  }
  std::string dir_;
  std::unique_ptr<GraphStore> store_;
};

TEST_F(StoreFixture, GraphRoundTrip) {
  Graph g = gen::BuildFig1Graph();
  ASSERT_TRUE(store_->PutGraph("fig1", g).ok());
  auto loaded = store_->GetGraph("fig1");
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->NumNodes(), g.NumNodes());
  EXPECT_EQ(loaded->NumEdges(), g.NumEdges());
  EXPECT_EQ(loaded->DisplayName(gen::Fig1::kBob), "Bob");
}

TEST_F(StoreFixture, PatternRoundTrip) {
  Pattern q = gen::BuildFig1Pattern();
  ASSERT_TRUE(store_->PutPattern("fig1q", q).ok());
  auto loaded = store_->GetPattern("fig1q");
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->ToText(), q.ToText());
}

TEST_F(StoreFixture, MatchesRoundTrip) {
  Graph g = gen::BuildFig1Graph();
  Pattern q = gen::BuildFig1Pattern();
  MatchRelation m = ComputeBoundedSimulation(g, q);
  ASSERT_TRUE(store_->PutMatches("fig1m", m).ok());
  auto loaded = store_->GetMatches("fig1m");
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded.value() == m);
}

TEST_F(StoreFixture, ListAndRemove) {
  Graph g = gen::BuildFig1Graph();
  ASSERT_TRUE(store_->PutGraph("a", g).ok());
  ASSERT_TRUE(store_->PutGraph("b", g).ok());
  ASSERT_TRUE(store_->PutPattern("p", gen::BuildFig1Pattern()).ok());
  EXPECT_EQ(store_->List("graph"), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(store_->List("pattern"), (std::vector<std::string>{"p"}));
  EXPECT_TRUE(store_->Remove("a", "graph").ok());
  EXPECT_EQ(store_->List("graph"), (std::vector<std::string>{"b"}));
  EXPECT_TRUE(store_->Remove("a", "graph").IsNotFound());
}

TEST_F(StoreFixture, MissingObjectIsNotFound) {
  EXPECT_TRUE(store_->GetGraph("ghost").status().IsNotFound());
  EXPECT_TRUE(store_->GetPattern("ghost").status().IsNotFound());
  EXPECT_TRUE(store_->GetMatches("ghost").status().IsNotFound());
}

TEST_F(StoreFixture, CorruptionDetectedByChecksum) {
  Graph g = gen::BuildFig1Graph();
  ASSERT_TRUE(store_->PutGraph("fig1", g).ok());
  // Flip a byte in the stored body.
  std::string path = dir_ + "/fig1.graph";
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  content[content.size() - 2] ^= 1;
  std::ofstream out(path, std::ios::trunc);
  out << content;
  out.close();
  EXPECT_TRUE(store_->GetGraph("fig1").status().IsCorruption());
}

TEST_F(StoreFixture, PartialWriteDetectedAsCorruption) {
  // Simulate the torn file a crashed *in-place* writer would leave: the
  // object truncated mid-body. The checksum must refuse it — this is the
  // failure mode the temp-file + rename protocol exists to prevent at the
  // final path.
  Graph g = gen::BuildFig1Graph();
  ASSERT_TRUE(store_->PutGraph("fig1", g).ok());
  std::string path = dir_ + "/fig1.graph";
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path, std::ios::trunc);
  out << content.substr(0, content.size() / 2);
  out.close();
  EXPECT_TRUE(store_->GetGraph("fig1").status().IsCorruption());
}

TEST_F(StoreFixture, CrashBeforeRenameLeavesObjectIntact) {
  // Simulate a writer that died between writing its temp file and the
  // rename: a stray partial `.tmp.*` sibling. The stored object must read
  // back untouched, the stray must not surface in List(), and a subsequent
  // Put must still replace the object cleanly.
  Graph g = gen::BuildFig1Graph();
  ASSERT_TRUE(store_->PutGraph("fig1", g).ok());
  std::ofstream stray(dir_ + "/fig1.graph.tmp.999.0");
  stray << "# checksum deadbeef\ntrunc";  // torn: never renamed into place
  stray.close();

  auto loaded = store_->GetGraph("fig1");
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->NumEdges(), g.NumEdges());
  EXPECT_EQ(store_->List("graph"), (std::vector<std::string>{"fig1"}));

  Graph g2 = gen::BuildFig1Graph();
  g2.AddNode("ST");
  ASSERT_TRUE(store_->PutGraph("fig1", g2).ok());
  auto replaced = store_->GetGraph("fig1");
  ASSERT_TRUE(replaced.ok()) << replaced.status();
  EXPECT_EQ(replaced->NumNodes(), g2.NumNodes());
}

TEST_F(StoreFixture, ConcurrentPutsOfOneNameNeverTearTheFile) {
  // Two writers hammering the same object while a reader reads it: unique
  // temp names + atomic rename mean every read observes one complete,
  // checksum-valid version (either writer's), never a half-written file or
  // an interleaving of both.
  Graph small = gen::BuildFig1Graph();
  Graph big = gen::BuildFig1Graph();
  for (int i = 0; i < 40; ++i) big.AddNode("ST");
  ASSERT_TRUE(store_->PutGraph("contested", small).ok());

  std::atomic<int> writing{2};
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      const Graph& mine = (w == 0) ? small : big;
      for (int i = 0; i < 30; ++i) {
        Status st = store_->PutGraph("contested", mine);
        EXPECT_TRUE(st.ok()) << st;
      }
      writing.fetch_sub(1);
    });
  }
  size_t reads = 0;
  threads.emplace_back([&] {
    // At least one read after both writers finish, however they are scheduled.
    bool last = false;
    while (!last) {
      last = writing.load() == 0;
      auto loaded = store_->GetGraph("contested");
      ++reads;
      ASSERT_TRUE(loaded.ok()) << "read " << reads << ": " << loaded.status();
      ASSERT_TRUE(loaded->NumNodes() == small.NumNodes() ||
                  loaded->NumNodes() == big.NumNodes())
          << loaded->NumNodes();
    }
  });
  for (auto& t : threads) t.join();
  EXPECT_GT(reads, 1u);
}

TEST_F(StoreFixture, EmptyFileIsCorruptionNamingThePath) {
  std::ofstream(dir_ + "/empty.graph").close();
  Status st = store_->GetGraph("empty").status();
  EXPECT_TRUE(st.IsCorruption()) << st;
  EXPECT_NE(st.message().find("empty.graph"), std::string::npos) << st;
}

TEST_F(StoreFixture, HeaderOnlyFileIsCorruption) {
  // A checksum line with no newline: there is no body to verify against.
  std::ofstream out(dir_ + "/headeronly.graph");
  out << "# checksum crc32c:00000000";
  out.close();
  EXPECT_TRUE(store_->GetGraph("headeronly").status().IsCorruption());
}

TEST_F(StoreFixture, NewWritesCarryTaggedCrc32cChecksum) {
  // Known-answer check on the on-disk format: first line is
  // "# checksum crc32c:<8 hex>" and the hex is CRC32C of the exact body.
  Graph g = gen::BuildFig1Graph();
  ASSERT_TRUE(store_->PutGraph("fig1", g).ok());
  std::ifstream in(dir_ + "/fig1.graph", std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  size_t eol = content.find('\n');
  ASSERT_NE(eol, std::string::npos);
  const std::string header = content.substr(0, eol);
  const std::string body = content.substr(eol + 1);
  char expect[32];
  std::snprintf(expect, sizeof(expect), "# checksum crc32c:%08x", Crc32c(body));
  EXPECT_EQ(header, expect);

  std::ostringstream os;
  ASSERT_TRUE(SaveGraphText(g, os).ok());
  EXPECT_EQ(body, os.str());
}

TEST_F(StoreFixture, LegacyFnvChecksumRejected) {
  // Files once carried a bare 16-hex FNV-1a checksum. That form is no
  // longer read: even a checksum that matches the body is corruption.
  Graph g = gen::BuildFig1Graph();
  std::ostringstream os;
  ASSERT_TRUE(SaveGraphText(g, os).ok());
  const std::string body = os.str();
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(Fnv1a(body)));
  std::ofstream out(dir_ + "/legacy.graph", std::ios::binary);
  out << "# checksum " << hex << "\n" << body;
  out.close();

  auto loaded = store_->GetGraph("legacy");
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status();
}

TEST_F(StoreFixture, MissingChecksumHeaderRejected) {
  std::ofstream out(dir_ + "/raw.graph");
  out << "node 0 A\n";
  out.close();
  EXPECT_TRUE(store_->GetGraph("raw").status().IsCorruption());
}

TEST_F(StoreFixture, OverwriteReplacesContent) {
  Graph g1 = gen::BuildFig1Graph();
  ASSERT_TRUE(store_->PutGraph("g", g1).ok());
  Graph g2 = gen::ErdosRenyi(10, 20, 1);
  ASSERT_TRUE(store_->PutGraph("g", g2).ok());
  auto loaded = store_->GetGraph("g");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->NumNodes(), 10u);
}

TEST(MatchRelationSerializationTest, RoundTripIncludingEmptyLists) {
  MatchRelation m(3);
  m.SetMatches(0, {1, 5, 9});
  m.SetMatches(2, {0});
  auto parsed = ParseMatchRelation(SerializeMatchRelation(m));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(parsed.value() == m);
}

TEST(MatchRelationSerializationTest, RejectsMalformed) {
  EXPECT_TRUE(ParseMatchRelation("garbage\n").status().IsCorruption());
  EXPECT_TRUE(ParseMatchRelation("match 0 1\n").status().IsCorruption());
  EXPECT_TRUE(
      ParseMatchRelation("patternnodes 1\nmatch 5 0\n").status().IsCorruption());
  EXPECT_TRUE(
      ParseMatchRelation("patternnodes 1\nmatch 0 3 1\n").status().IsCorruption());
  EXPECT_TRUE(ParseMatchRelation("").status().IsCorruption());
  // A node id that does not fit 32 bits.
  EXPECT_TRUE(
      ParseMatchRelation("patternnodes 1\nmatch 0 4294967296\n").status().IsCorruption());
}

TEST(MatchRelationSerializationTest, OversizedCountIsCorruptionNotAllocation) {
  // A corrupted length field far beyond any real pattern must be rejected
  // up front, not turned into a giant allocation.
  auto r = ParseMatchRelation("patternnodes 9999999999\n");
  ASSERT_TRUE(r.status().IsCorruption());
  EXPECT_NE(r.status().message().find("patternnodes"), std::string::npos);
  EXPECT_TRUE(
      ParseMatchRelation("patternnodes 1048577\n").status().IsCorruption());
}

TEST(GraphStoreTest, OpenRejectsFilePath) {
  std::string file = ::testing::TempDir() + "/not_a_dir";
  std::ofstream(file) << "x";
  EXPECT_FALSE(GraphStore::Open(file).ok());
}

}  // namespace
}  // namespace expfinder
