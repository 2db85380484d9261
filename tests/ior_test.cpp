// End-to-end IOR tests: every backend writes and reads back verified data in
// both easy (file-per-process) and hard (shared-file) modes on a small
// cluster, and the bandwidth accounting is sane.
#include <gtest/gtest.h>

#include "co_assert.hpp"
#include "ior/ior.hpp"

namespace daosim::ior {
namespace {

using cluster::ClusterConfig;
using cluster::Testbed;

ClusterConfig small_cluster(std::uint32_t client_nodes = 2) {
  ClusterConfig cfg;
  cfg.server_nodes = 2;
  cfg.engines_per_server = 2;
  cfg.targets_per_engine = 4;
  cfg.client_nodes = client_nodes;
  return cfg;
}

IorConfig small_job(Api api, bool fpp) {
  IorConfig cfg;
  cfg.api = api;
  cfg.transfer_size = 256 * kKiB;
  cfg.block_size = 1 * kMiB;
  cfg.segments = 2;
  cfg.file_per_process = fpp;
  cfg.verify = true;
  return cfg;
}

class IorBackends
    : public ::testing::TestWithParam<std::tuple<Api, bool /*file_per_process*/>> {};

TEST_P(IorBackends, WritesAndReadsBackVerified) {
  const auto [api, fpp] = GetParam();
  Testbed tb(small_cluster());
  tb.start();
  IorRunner runner(tb, /*ppn=*/4);
  const IorResult res = runner.run(small_job(api, fpp));

  EXPECT_EQ(res.verify_errors, 0u) << to_string(api);
  EXPECT_EQ(res.read_fill_errors, 0u) << to_string(api);
  // 8 ranks x 1 MiB x 2 segments = 16 MiB per phase.
  EXPECT_EQ(res.write.bytes, 16u * kMiB);
  EXPECT_EQ(res.read.bytes, 16u * kMiB);
  EXPECT_GT(res.write.seconds, 0.0);
  EXPECT_GT(res.read.seconds, 0.0);
  EXPECT_GT(res.write.gib_per_sec(), 0.0);
  tb.stop();
}

INSTANTIATE_TEST_SUITE_P(
    AllApis, IorBackends,
    ::testing::Combine(::testing::Values(Api::posix, Api::dfs, Api::mpiio, Api::hdf5,
                                         Api::daos_array),
                       ::testing::Values(true, false)),
    [](const auto& tp) {
      return std::string(to_string(std::get<0>(tp.param))) +
             (std::get<1>(tp.param) ? "_easy" : "_hard");
    });

TEST(Ior, CollectiveMpiioSharedFileVerifies) {
  Testbed tb(small_cluster());
  tb.start();
  IorRunner runner(tb, 4);
  auto cfg = small_job(Api::mpiio, /*fpp=*/false);
  cfg.collective = true;
  const IorResult res = runner.run(cfg);
  EXPECT_EQ(res.verify_errors, 0u);
  EXPECT_EQ(res.read_fill_errors, 0u);
  tb.stop();
}

TEST(Ior, ReorderTasksReadsNeighbourData) {
  Testbed tb(small_cluster());
  tb.start();
  IorRunner runner(tb, 4);
  auto cfg = small_job(Api::dfs, true);
  cfg.reorder_tasks = true;
  const IorResult res = runner.run(cfg);
  EXPECT_EQ(res.verify_errors, 0u);
  tb.stop();
}

TEST(Ior, NoReorderAlsoVerifies) {
  Testbed tb(small_cluster());
  tb.start();
  IorRunner runner(tb, 4);
  auto cfg = small_job(Api::dfs, false);
  cfg.reorder_tasks = false;
  const IorResult res = runner.run(cfg);
  EXPECT_EQ(res.verify_errors, 0u);
  tb.stop();
}

TEST(Ior, ReadAtSnapshotVerifiesOnPinnedEpoch) {
  Testbed tb(small_cluster());
  tb.start();
  IorRunner runner(tb, 4);
  for (const bool fpp : {true, false}) {
    auto cfg = small_job(Api::daos_array, fpp);
    cfg.read_at_snapshot = true;
    const IorResult res = runner.run(cfg);
    EXPECT_EQ(res.verify_errors, 0u) << (fpp ? "easy" : "hard");
    EXPECT_EQ(res.read_fill_errors, 0u) << (fpp ? "easy" : "hard");
  }
  // Each job registered its read-phase snapshot with the pool service.
  tb.run([&]() -> sim::CoTask<void> {
    auto snaps = co_await tb.client(0).list_snapshots(cluster::kPoolUuid);
    CO_ASSERT_OK(snaps);
    CO_ASSERT_EQ(snaps->size(), 2u);
  });
  tb.stop();
}

TEST(Ior, MultipleJobsOnOneRunner) {
  Testbed tb(small_cluster());
  tb.start();
  IorRunner runner(tb, 2);
  for (Api api : {Api::dfs, Api::posix}) {
    auto cfg = small_job(api, true);
    const IorResult res = runner.run(cfg);
    EXPECT_EQ(res.verify_errors, 0u) << to_string(api);
  }
  tb.stop();
}

TEST(Ior, ObjectClassChangesPlacementSpread) {
  // S1 file-per-process with few ranks touches few targets; SX touches many.
  Testbed tb1(small_cluster(1));
  tb1.start();
  IorRunner r1(tb1, 2);
  auto cfg = small_job(Api::dfs, true);
  cfg.oclass = std::uint8_t(client::ObjClass::S1);
  cfg.verify = false;
  (void)r1.run(cfg);
  std::uint64_t s1_engines = 0;
  for (std::uint32_t e = 0; e < tb1.engine_count(); ++e) {
    s1_engines += tb1.engine(e).updates_served() > 0;
  }
  tb1.stop();

  Testbed tb2(small_cluster(1));
  tb2.start();
  IorRunner r2(tb2, 2);
  cfg.oclass = std::uint8_t(client::ObjClass::SX);
  (void)r2.run(cfg);
  std::uint64_t sx_engines = 0;
  for (std::uint32_t e = 0; e < tb2.engine_count(); ++e) {
    sx_engines += tb2.engine(e).updates_served() > 0;
  }
  tb2.stop();
  EXPECT_GE(sx_engines, s1_engines);
  EXPECT_EQ(sx_engines, 4u);  // SX spreads over every engine
}

/// Bytes the engines' nodes have sent on the fabric so far.
std::uint64_t engine_tx_bytes(Testbed& tb) {
  std::uint64_t tx = 0;
  for (const telemetry::Registry* r : tb.registries()) {
    if (r->root() != "fabric") continue;
    for (std::uint32_t e = 0; e < tb.engine_count(); ++e) {
      const auto* c = r->find<telemetry::Counter>(
          strfmt("node/%u/tx_bytes", unsigned(tb.engine(e).node())));
      if (c != nullptr) tx += c->value();
    }
  }
  return tx;
}

TEST(Ior, MetadataOnlyModeRunsLargeJob) {
  // Discard mode keeps no payload: every read of a job lands in one shared
  // sink, with up to eq_depth reads per rank in flight on it at once.
  auto ccfg = small_cluster();
  ccfg.payload = vos::PayloadMode::discard;
  Testbed tb(ccfg);
  tb.start();
  IorRunner runner(tb, 4);
  struct Case {
    Api api;
    bool fpp;
    bool collective;
  };
  for (const Case c : {Case{Api::posix, true, false}, Case{Api::dfs, true, false},
                       Case{Api::mpiio, false, false}, Case{Api::mpiio, false, true},
                       Case{Api::hdf5, true, false}, Case{Api::daos_array, true, false}}) {
    IorConfig cfg;
    cfg.api = c.api;
    cfg.file_per_process = c.fpp;
    cfg.collective = c.collective;
    cfg.eq_depth = c.collective ? 1 : 4;  // collective calls cannot overlap
    cfg.transfer_size = 4 * kMiB;
    cfg.block_size = 32 * kMiB;  // 8 ranks x 32 MiB with no payload memory
    const std::string name = std::string(to_string(c.api)) + (c.collective ? " collective" : "");
    const std::uint64_t tx_before = engine_tx_bytes(tb);
    const IorResult res = runner.run(cfg);
    EXPECT_EQ(res.read_fill_errors, 0u) << name;
    EXPECT_EQ(res.data_loss_events, 0u) << name;
    EXPECT_EQ(res.write.bytes, 256u * kMiB) << name;
    EXPECT_EQ(res.read.bytes, 256u * kMiB) << name;
    // Every read byte crossed the fabric from an engine.
    EXPECT_GE(engine_tx_bytes(tb) - tx_before, 256u * kMiB) << name;
    EXPECT_GT(res.write.gib_per_sec(), 0.0) << name;
    EXPECT_GT(res.read.gib_per_sec(), 0.0) << name;
  }
  tb.stop();
}

TEST(Ior, VerifyRequiresStoredPayload) {
  // Discard mode keeps no bytes to compare, so verify there is refused
  // instead of silently passing.
  auto ccfg = small_cluster();
  ccfg.payload = vos::PayloadMode::discard;
  Testbed tb(ccfg);
  tb.start();
  IorRunner runner(tb, 4);
  EXPECT_THROW((void)runner.run(small_job(Api::dfs, true)), DaosimError);
  tb.stop();
}

TEST(Ior, ReadsFasterThanWrites) {
  // Optane's read/write asymmetry must show through the whole stack. Use the
  // shared-file mode: a single object keeps every target's stream context
  // warm, so media asymmetry (not cold-stream switching) dominates.
  auto ccfg = small_cluster();
  ccfg.payload = vos::PayloadMode::discard;
  Testbed tb(ccfg);
  tb.start();
  IorRunner runner(tb, 8);
  IorConfig cfg;
  cfg.api = Api::dfs;
  cfg.file_per_process = false;
  cfg.transfer_size = 4 * kMiB;
  cfg.block_size = 64 * kMiB;
  cfg.verify = false;
  const IorResult res = runner.run(cfg);
  EXPECT_GT(res.read.gib_per_sec(), res.write.gib_per_sec());
  tb.stop();
}

TEST(Ior, Hdf5SlowerThanDfsInEasyMode) {
  // The paper's headline FPP observation: HDF5 over DFuse well below DFS.
  auto ccfg = small_cluster();
  ccfg.payload = vos::PayloadMode::discard;
  Testbed tb(ccfg);
  tb.start();
  IorRunner runner(tb, 8);
  IorConfig cfg;
  cfg.transfer_size = 4 * kMiB;
  cfg.block_size = 32 * kMiB;
  cfg.verify = false;
  cfg.api = Api::dfs;
  const IorResult dfs_res = runner.run(cfg);
  cfg.api = Api::hdf5;
  const IorResult h5_res = runner.run(cfg);
  EXPECT_LT(h5_res.write.gib_per_sec(), dfs_res.write.gib_per_sec());
  EXPECT_LT(h5_res.read.gib_per_sec(), dfs_res.read.gib_per_sec());
  tb.stop();
}

TEST(Ior, EqDepthPipelinesTransfersAndVerifies) {
  // The daos_event model: each rank keeps eq_depth transfers in flight. A
  // deeper queue overlaps RPC round-trips and must never be slower than
  // issuing the same transfers serially — while still verifying every byte.
  auto run = [](std::uint32_t depth) {
    Testbed tb(small_cluster());
    tb.start();
    IorRunner runner(tb, /*ppn=*/4, /*chunk_size=*/64 * kKiB);
    IorConfig cfg = small_job(Api::dfs, /*fpp=*/true);
    cfg.eq_depth = depth;
    const IorResult res = runner.run(cfg);
    tb.stop();
    return res;
  };
  const IorResult eq1 = run(1);
  const IorResult eq4 = run(4);
  EXPECT_EQ(eq1.verify_errors, 0u);
  EXPECT_EQ(eq4.verify_errors, 0u);
  EXPECT_EQ(eq4.read_fill_errors, 0u);
  EXPECT_EQ(eq4.write.bytes, eq1.write.bytes);
  EXPECT_EQ(eq4.read.bytes, eq1.read.bytes);
  EXPECT_LT(eq4.write.seconds, eq1.write.seconds) << "deeper queue failed to pipeline writes";
  EXPECT_LE(eq4.read.seconds, eq1.read.seconds);
}

TEST(Ior, PatternHelpersRoundTrip) {
  std::vector<std::byte> buf(4096);
  fill_pattern(buf, 777, 42);
  EXPECT_EQ(check_pattern(buf, 777, 42), 0u);
  EXPECT_GT(check_pattern(buf, 778, 42), 0u);
  EXPECT_GT(check_pattern(buf, 777, 43), 0u);
}

}  // namespace
}  // namespace daosim::ior
