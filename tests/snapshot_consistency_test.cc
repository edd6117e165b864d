// Randomized snapshot-consistency sweep (ISSUE 6): reader threads racing a
// writer through the epoch-published serving path, extending the
// version-map harness of service_test.cc with as_of pinning. Every
// response — current-epoch or pinned — must carry a relation equal to
// M(Q, G@graph_version) for the exact version it reports, pinned reads
// must land on the requested version or fail cleanly with NotFound when
// the ring raced past it, and readers must never observe a version the
// writer has not yet published. Runs under ThreadSanitizer in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/generator/generators.h"
#include "src/matching/bounded_simulation.h"
#include "src/service/expfinder_service.h"
#include "src/util/random.h"

namespace expfinder {
namespace {

struct SweepConfig {
  size_t num_people = 300;
  size_t num_batches = 6;
  size_t batch_size = 15;
  size_t num_readers = 6;
  size_t min_reads_per_thread = 20;
  size_t retained_snapshots = 3;
  bool use_compression = false;
  uint64_t seed = 29;
};

void RunSnapshotSweep(const SweepConfig& cfg) {
  gen::CollaborationConfig gen_cfg;
  gen_cfg.num_people = cfg.num_people;
  gen_cfg.num_teams = cfg.num_people / 6;
  gen_cfg.seed = cfg.seed;
  Graph g = gen::CollaborationNetwork(gen_cfg);

  const std::vector<Pattern> patterns = {gen::TeamQuery(0), gen::TeamQuery(1),
                                         gen::TeamQuery(2)};

  // Serial replay on a replica: the oracle relation of every pattern at
  // every version any reader — pinned or not — can observe.
  Graph replica = g;
  std::vector<UpdateBatch> batches;
  std::vector<std::map<uint64_t, MatchRelation>> expected(patterns.size());
  std::vector<uint64_t> versions = {replica.version()};
  for (size_t p = 0; p < patterns.size(); ++p) {
    expected[p][replica.version()] = ComputeBoundedSimulation(replica, patterns[p]);
  }
  for (size_t b = 0; b < cfg.num_batches; ++b) {
    UpdateBatch batch = GenerateUpdateStream(replica, cfg.batch_size, 0.5,
                                             5000 + cfg.seed * 100 + b);
    ASSERT_TRUE(ApplyBatch(&replica, batch).ok());
    batches.push_back(std::move(batch));
    versions.push_back(replica.version());
    for (size_t p = 0; p < patterns.size(); ++p) {
      expected[p][replica.version()] =
          ComputeBoundedSimulation(replica, patterns[p]);
    }
  }

  ServiceOptions opts;
  opts.engine.use_compression = cfg.use_compression;
  opts.engine.match_threads = 1;
  opts.serving_threads = 4;
  opts.retained_snapshots = cfg.retained_snapshots;
  ExpFinderService service(&g, opts);
  ASSERT_TRUE(service.RegisterMaintainedQuery(patterns[1]).ok());

  std::mutex failures_mu;
  std::vector<std::string> failures;
  auto record_failure = [&](const std::string& msg) {
    std::lock_guard<std::mutex> lock(failures_mu);
    failures.push_back(msg);
  };

  // The writer publishes versions in order; a reader must never report a
  // version beyond the newest published one (monotonic publication).
  std::atomic<uint64_t> newest_published{service.version()};

  auto check_response = [&](size_t p, const Result<QueryResponse>& resp,
                            std::optional<uint64_t> pinned) {
    if (!resp.ok()) {
      if (pinned.has_value() && resp.status().IsNotFound()) {
        return;  // the ring raced past the pinned version: a clean refusal
      }
      record_failure("query failed: " + resp.status().ToString());
      return;
    }
    if (pinned.has_value() && resp->graph_version != *pinned) {
      std::ostringstream os;
      os << "pinned read asked for version " << *pinned << " but got "
         << resp->graph_version;
      record_failure(os.str());
      return;
    }
    if (resp->graph_version > newest_published.load()) {
      std::ostringstream os;
      os << "response reports version " << resp->graph_version
         << " before the writer published it";
      record_failure(os.str());
      return;
    }
    auto it = expected[p].find(resp->graph_version);
    if (it == expected[p].end()) {
      std::ostringstream os;
      os << "response reports unknown graph version " << resp->graph_version;
      record_failure(os.str());
      return;
    }
    if (!(resp->answer->matches == it->second)) {
      std::ostringstream os;
      os << "relation inconsistent with reported version " << resp->graph_version
         << " for pattern " << p << " (path " << ServingPathName(resp->path)
         << (pinned ? ", pinned" : "") << ")";
      record_failure(os.str());
    }
  };

  // Unpinned hits complete inside Submit, beside the writer: the sweep
  // must see some, or it checks none of them.
  std::atomic<size_t> unpinned_cache_hits{0};
  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    for (size_t b = 0; b < batches.size(); ++b) {
      // Advertise the bound BEFORE publishing: a reader can pin the new
      // epoch the instant Mutate publishes it, racing ahead of a store
      // placed after Mutate returns. Readers can never observe a version
      // that was not actually published, so the early store never masks a
      // real monotonicity violation — anything beyond this batch still
      // trips the check.
      newest_published.store(versions[b + 1]);
      Status st = service.Mutate(batches[b]);
      if (!st.ok()) record_failure("mutate failed: " + st.ToString());
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
    writer_done.store(true);
  });

  std::vector<std::thread> readers;
  for (size_t t = 0; t < cfg.num_readers; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(131 * (t + 1) + cfg.seed);
      size_t reads = 0;
      const size_t hard_cap = 64 * cfg.min_reads_per_thread;
      while (reads < cfg.min_reads_per_thread ||
             (!writer_done.load() && reads < hard_cap)) {
        size_t p = rng.NextBounded(patterns.size());
        QueryRequest req;
        req.pattern = patterns[p];
        req.use_cache = rng.NextBool();
        std::optional<uint64_t> pinned;
        if (rng.NextBool(0.5)) {
          // Pin a version the ring recently held. It may be evicted by the
          // time the request is served — NotFound is the only acceptable
          // failure then.
          std::vector<uint64_t> retained = service.RetainedVersions();
          if (!retained.empty()) {
            pinned = retained[rng.NextBounded(retained.size())];
            req.as_of_version = pinned;
          }
        }
        auto resp = service.Query(req);
        if (!pinned && resp.ok() && resp->path == ServingPath::kCache) {
          unpinned_cache_hits.fetch_add(1);
        }
        check_response(p, resp, pinned);
        ++reads;
      }
    });
  }
  writer.join();
  for (auto& r : readers) r.join();

  for (const std::string& f : failures) ADD_FAILURE() << f;
  EXPECT_GT(unpinned_cache_hits.load(), 0u);

  // Final state equals the serial replay, and the ring holds the newest
  // versions with every one of them still servable.
  EXPECT_EQ(service.version(), replica.version());
  std::vector<uint64_t> retained = service.RetainedVersions();
  ASSERT_FALSE(retained.empty());
  EXPECT_EQ(retained.back(), replica.version());
  EXPECT_LE(retained.size(), cfg.retained_snapshots);
  for (uint64_t version : retained) {
    QueryRequest req;
    req.pattern = patterns[0];
    req.use_cache = false;
    req.as_of_version = version;
    auto resp = service.Query(req);
    ASSERT_TRUE(resp.ok()) << "retained version " << version
                           << " unservable: " << resp.status();
    EXPECT_EQ(resp->graph_version, version);
    EXPECT_TRUE(resp->answer->matches == expected[0].at(version));
  }
  ServiceStats s = service.stats();
  EXPECT_EQ(s.batches_applied, cfg.num_batches);
  // Initial publish + the maintained-query registration + one per batch.
  EXPECT_EQ(s.snapshots_published, cfg.num_batches + 2);
  EXPECT_EQ(s.ClassifiedQueries(), s.queries);
}

TEST(SnapshotConsistencyTest, PinnedAndCurrentReadersVersusWriter) {
  RunSnapshotSweep({});
}

TEST(SnapshotConsistencyTest, PinnedReadersVersusWriterCompressed) {
  SweepConfig cfg;
  cfg.num_batches = 4;
  cfg.use_compression = true;
  cfg.seed = 31;
  RunSnapshotSweep(cfg);
}

TEST(SnapshotConsistencyTest, TinyRingRacesEvictionCleanly) {
  // retained_snapshots = 1 makes every pinned read race eviction: the only
  // acceptable outcomes are the exact pinned relation or NotFound.
  SweepConfig cfg;
  cfg.retained_snapshots = 1;
  cfg.num_batches = 8;
  cfg.seed = 37;
  RunSnapshotSweep(cfg);
}

}  // namespace
}  // namespace expfinder
