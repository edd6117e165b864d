// The storage layer's shared file conventions: the checksummed file's
// atomic, durable replace under injected faults and its verified read, and
// the LSN-named file family's format, parse and ordered listing.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "src/storage/fault_env.h"
#include "src/storage/file_codec.h"
#include "src/util/crc32c.h"
#include "src/util/string_util.h"

namespace expfinder {
namespace {

class FileCodecFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/file_codec_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);  // stale state from a previous run
    ASSERT_TRUE(FileOps::Real()->CreateDirs(dir_).ok());
  }

  void WriteRaw(const std::string& path, const std::string& bytes) {
    auto f = FileOps::Real()->NewWritableFile(path, /*truncate=*/true);
    ASSERT_TRUE(f.ok()) << f.status();
    ASSERT_TRUE((*f)->Append(bytes).ok());
    ASSERT_TRUE((*f)->Close().ok());
  }

  std::vector<std::string> Names() {
    auto names = FileOps::Real()->ListDir(dir_);
    EXPECT_TRUE(names.ok()) << names.status();
    return names.ok() ? *names : std::vector<std::string>{};
  }

  std::string dir_;
};

std::string Crc32cHex(const std::string& body) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", Crc32c(body));
  return buf;
}

TEST_F(FileCodecFixture, WriteThenReadReturnsTheBody) {
  const std::string path = dir_ + "/obj";
  for (const std::string body : {"first body\nline two\n", "", "no newline"}) {
    ASSERT_TRUE(WriteChecksummedFile(FileOps::Real(), path, body).ok());
    auto raw = FileOps::Real()->ReadFileToString(path);
    ASSERT_TRUE(raw.ok());
    EXPECT_EQ(*raw, "# checksum crc32c:" + Crc32cHex(body) + "\n" + body);
    auto read = ReadChecksummedFile(FileOps::Real(), path);
    ASSERT_TRUE(read.ok()) << read.status();
    EXPECT_EQ(*read, body);
  }
  EXPECT_EQ(Names(), std::vector<std::string>{"obj"});  // no temp left behind
}

TEST_F(FileCodecFixture, FailedWriteLeavesTheTargetAsItWas) {
  // Each fault fails the write before the rename lands: the target keeps
  // exactly its previous bytes, or stays absent when there were none.
  struct Case {
    const char* name;
    FaultPlan plan;
    bool temp_removed;  // a crash also fails the temp's removal
  };
  FaultPlan fail_sync;
  fail_sync.fail_sync_at_count = 1;
  FaultPlan fail_rename;
  fail_rename.fail_rename_at_count = 1;
  FaultPlan crash;
  crash.crash_after_bytes = 30;  // tears the body of the temp file
  for (const Case& c : {Case{"sync", fail_sync, true},
                        Case{"rename", fail_rename, true},
                        Case{"crash", crash, false}}) {
    for (const bool had_previous : {false, true}) {
      SCOPED_TRACE(std::string(c.name) + (had_previous ? ", over a file" : ", fresh"));
      const std::string path = dir_ + "/" + c.name + (had_previous ? "_over" : "_fresh");
      std::string previous;
      if (had_previous) {
        ASSERT_TRUE(WriteChecksummedFile(FileOps::Real(), path, "old body\n").ok());
        previous = FileOps::Real()->ReadFileToString(path).ValueOr("");
      }
      FaultyFileOps faulty(c.plan);
      Status st = WriteChecksummedFile(&faulty, path, "a new body that is long\n");
      EXPECT_TRUE(st.IsIOError()) << st;
      auto now = FileOps::Real()->ReadFileToString(path);
      if (had_previous) {
        ASSERT_TRUE(now.ok()) << now.status();
        EXPECT_EQ(*now, previous);
      } else {
        EXPECT_TRUE(now.status().IsNotFound()) << now.status();
      }
      size_t temps = 0;
      for (const std::string& name : Names()) temps += name.find(".tmp.") != std::string::npos;
      EXPECT_EQ(temps, c.temp_removed ? 0u : 1u);
      std::filesystem::remove_all(dir_);
      ASSERT_TRUE(FileOps::Real()->CreateDirs(dir_).ok());
    }
  }
}

TEST_F(FileCodecFixture, MissingFileIsNotFound) {
  auto read = ReadChecksummedFile(FileOps::Real(), dir_ + "/ghost");
  EXPECT_TRUE(read.status().IsNotFound()) << read.status();
}

TEST_F(FileCodecFixture, BadFilesAreCorruptionNamingThePath) {
  const std::string body = "node 0 A\n";
  char fnv[32];
  std::snprintf(fnv, sizeof(fnv), "%016llx",
                static_cast<unsigned long long>(Fnv1a(body)));
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"empty", ""},
      {"header_only", "# checksum crc32c:" + Crc32cHex("")},
      {"no_header", body},
      {"bare_fnv", std::string("# checksum ") + fnv + "\n" + body},
      {"mismatch", "# checksum crc32c:" + Crc32cHex(body) + "\nnode 0 B\n"},
  };
  for (const auto& [name, bytes] : cases) {
    SCOPED_TRACE(name);
    const std::string path = dir_ + "/" + name + ".graph";
    WriteRaw(path, bytes);
    Status st = ReadChecksummedFile(FileOps::Real(), path).status();
    EXPECT_TRUE(st.IsCorruption()) << st;
    EXPECT_NE(st.message().find(path), std::string::npos) << st;
  }
}

TEST_F(FileCodecFixture, LsnNamesFormatParseAndListInLsnOrder) {
  constexpr LsnFileNames kNames{"wal-", ".log"};
  EXPECT_EQ(kNames.Format(0x1f), "wal-000000000000001f.log");
  EXPECT_EQ(kNames.Parse(kNames.Format(0xfedcba9876543210ull)),
            std::optional<uint64_t>(0xfedcba9876543210ull));
  for (const char* foreign :
       {"wal-000000000000001F.log", "wal-00000000000001f.log", "wal-000000000000001f.lo",
        "ckpt-000000000000001f.log", "wal-000000000000001f.log.tmp.1.0",
        "wal-00000000000000xf.log"}) {
    EXPECT_EQ(kNames.Parse(foreign), std::nullopt) << foreign;
  }

  for (uint64_t lsn : {300u, 2u, 17u}) WriteRaw(dir_ + "/" + kNames.Format(lsn), "x");
  WriteRaw(dir_ + "/ckpt-0000000000000001.ckpt", "x");
  WriteRaw(dir_ + "/" + kNames.Format(5) + ".tmp.1.0", "x");
  auto listed = kNames.List(FileOps::Real(), dir_);
  ASSERT_TRUE(listed.ok()) << listed.status();
  std::vector<uint64_t> lsns;
  for (const LsnFileNames::File& f : *listed) {
    lsns.push_back(f.lsn);
    EXPECT_EQ(f.path, dir_ + "/" + kNames.Format(f.lsn));
  }
  EXPECT_EQ(lsns, (std::vector<uint64_t>{2, 17, 300}));

  auto absent = kNames.List(FileOps::Real(), dir_ + "/missing");
  ASSERT_TRUE(absent.ok()) << absent.status();
  EXPECT_TRUE(absent->empty());
}

}  // namespace
}  // namespace expfinder
