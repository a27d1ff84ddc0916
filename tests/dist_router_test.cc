// End-to-end distributed-router tests (DESIGN.md §18): fork N real
// `gir_serve --shard-lane` worker processes plus a real `gir_router`
// front end over loopback, drive a randomized mutation + query stream
// through the router's GIRNET01 port, and require the cluster's answers
// to be bit-identical to a single in-process DynamicGirIndex fed exactly
// the same stream — ids, ranks, tie order, live counts — at shard counts
// 1, 2 and 4.
//
// The failure arm SIGKILLs one worker mid-serve and requires
// degraded-never-wrong: every answer is flagged kDegraded with an
// accurate shard-coverage bitmap, and the payload equals the oracle's
// answer restricted to the weights the covered shards own — never a
// wrong merge, never a silent gap.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_util/op_stream.h"
#include "data/generators.h"
#include "data/weights.h"
#include "grid/dynamic_index.h"
#include "grid/index_io.h"
#include "grid/sharded_index.h"
#include "server/client.h"

#ifndef GIR_SERVE_PATH
#error "GIR_SERVE_PATH must be defined by the build"
#endif
#ifndef GIR_ROUTER_PATH
#error "GIR_ROUTER_PATH must be defined by the build"
#endif

namespace gir {
namespace {

constexpr size_t kDim = 3;

class DistRouterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("gir_dist_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    points_ = GeneratePoints(PointDistribution::kUniform, 60, kDim, 901);
    weights_ = GenerateWeights(WeightDistribution::kUniform, 48, kDim, 902);
  }

  void TearDown() override {
    StopCluster();
    std::filesystem::remove_all(dir_);
  }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  /// Builds the GIRSHD01 envelope at `n` shards, forks one
  /// `gir_serve --shard-lane` per lane (read-only: the router is the only
  /// write path) and one `gir_router` over them, and waits for every port
  /// file. Also rebuilds the round-robin owner snapshot the degraded arm
  /// filters by.
  void StartCluster(size_t n) {
    ASSERT_TRUE(shard_pids_.empty()) << "cluster already running";
    ShardedIndexOptions options;
    options.shards = n;
    auto sharded = ShardedGirIndex::Build(points_, weights_, options);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    ASSERT_TRUE(SaveShardedIndex(Path("shd.bin"), *sharded.value()).ok());

    std::string shard_list;
    for (size_t s = 0; s < n; ++s) {
      const std::string port_file = Path("s" + std::to_string(s) + ".port");
      std::filesystem::remove(port_file);
      shard_pids_.push_back(Spawn(
          GIR_SERVE_PATH,
          {"--index", Path("shd.bin"), "--shard-lane", std::to_string(s),
           "--read-only", "--port", "0", "--port-file", port_file},
          "s" + std::to_string(s) + ".log"));
    }
    for (size_t s = 0; s < n; ++s) {
      const uint16_t port =
          AwaitPort(Path("s" + std::to_string(s) + ".port"), shard_pids_[s]);
      if (HasFatalFailure()) return;
      if (!shard_list.empty()) shard_list += ",";
      shard_list += "127.0.0.1:" + std::to_string(port);
    }

    std::filesystem::remove(Path("r.port"));
    // Tight retry/breaker knobs keep the SIGKILL arm fast: one retry with
    // short backoff, breaker after two consecutive failures.
    router_pid_ = Spawn(
        GIR_ROUTER_PATH,
        {"--index", Path("shd.bin"), "--shards", shard_list, "--port", "0",
         "--port-file", Path("r.port"), "--connect-ms", "2000",
         "--timeout-ms", "4000", "--retries", "1", "--backoff-ms", "5",
         "--backoff-max-ms", "20", "--breaker-threshold", "2",
         "--breaker-cooldown-ms", "200"},
        "router.log");
    router_port_ = AwaitPort(Path("r.port"), router_pid_);
  }

  void StopCluster() {
    auto reap = [](pid_t& pid) {
      if (pid > 0) {
        ::kill(pid, SIGKILL);
        int status = 0;
        ::waitpid(pid, &status, 0);
        pid = -1;
      }
    };
    reap(router_pid_);
    for (pid_t& pid : shard_pids_) reap(pid);
    shard_pids_.clear();
  }

  void KillShard(size_t s) {
    ASSERT_LT(s, shard_pids_.size());
    ASSERT_GT(shard_pids_[s], 0);
    ASSERT_EQ(::kill(shard_pids_[s], SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(shard_pids_[s], &status, 0), shard_pids_[s]);
    shard_pids_[s] = -1;
  }

  pid_t Spawn(const char* binary, std::vector<std::string> args,
              const std::string& log_name) {
    std::vector<std::string> all = {binary};
    for (std::string& a : args) all.push_back(std::move(a));
    const pid_t pid = ::fork();
    EXPECT_GE(pid, 0);
    if (pid == 0) {
      const int log = ::open(Path(log_name).c_str(),
                             O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (log >= 0) {
        ::dup2(log, 1);
        ::dup2(log, 2);
        ::close(log);
      }
      std::vector<char*> argv;
      argv.reserve(all.size() + 1);
      for (std::string& a : all) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(binary, argv.data());
      _exit(127);
    }
    return pid;
  }

  uint16_t AwaitPort(const std::string& port_file, pid_t pid) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < deadline) {
      std::ifstream in(port_file);
      int port = 0;
      if (in >> port && port > 0) return static_cast<uint16_t>(port);
      int status = 0;
      EXPECT_EQ(::waitpid(pid, &status, WNOHANG), 0)
          << "process died during startup; logs:\n"
          << ReadLogs();
      if (HasFailure()) return 0;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ADD_FAILURE() << "port file " << port_file << " never appeared; logs:\n"
                  << ReadLogs();
    return 0;
  }

  std::string ReadLogs() const {
    std::string out;
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      if (entry.path().extension() != ".log") continue;
      std::ifstream in(entry.path());
      out += "---- " + entry.path().filename().string() + " ----\n";
      out += std::string((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    }
    return out;
  }

  RemoteClient ConnectRouter() {
    RemoteClientOptions options;
    options.connect_ms = 5000;
    options.io_ms = 30000;  // the router absorbs shard-side retry delays
    auto client = RemoteClient::Connect("127.0.0.1", router_port_, options);
    EXPECT_TRUE(client.ok()) << client.status().ToString() << ReadLogs();
    return std::move(client).value();
  }

  std::filesystem::path dir_;
  Dataset points_{kDim};
  Dataset weights_{kDim};
  std::vector<pid_t> shard_pids_;
  pid_t router_pid_ = -1;
  uint16_t router_port_ = 0;
};

/// The oracle gate: a churn + query stream through the router must be
/// bit-identical to one DynamicGirIndex fed the same acked stream, at
/// every cluster width. Also exercises the capped RKR verb and both
/// batch verbs end to end, and requires zero degraded answers on a
/// healthy cluster.
TEST_F(DistRouterTest, ClusterMatchesSingleIndexOracle) {
  const Dataset probes =
      GeneratePoints(PointDistribution::kUniform, 6, kDim, 903);

  for (size_t n : {size_t{1}, size_t{2}, size_t{4}}) {
    SCOPED_TRACE("shards " + std::to_string(n));
    StartCluster(n);
    if (HasFatalFailure() || HasFailure()) return;
    RemoteClient client = ConnectRouter();
    if (HasFailure()) return;

    DynamicIndexOptions oracle_options;
    auto oracle = DynamicGirIndex::Build(points_, weights_, oracle_options);
    ASSERT_TRUE(oracle.ok());

    // One mutation, then RTK, RKR and capped RKR over one drawn query,
    // per step. The target refuses any answer marked degraded.
    OpStream stream(910 + n, {.dim = kDim,
                              .mix = {.insert_point = 30, .delete_point = 15,
                                      .insert_weight = 25, .delete_weight = 15,
                                      .compact = 15},
                              .live_points = points_.size(),
                              .live_weights = weights_.size(),
                              .min_live_points = 20,
                              .min_live_weights = 8,
                              .max_k = 7});
    RemoteTarget target(client);
    OracleChecker checker(oracle.value(), target, stream.seed());
    for (int op = 0; op < 30; ++op) {
      Status s = checker.Step(stream.Next());
      Op query = stream.Query(OpKind::kRtk);
      if (s.ok()) s = checker.Step(query);
      query.kind = OpKind::kRkr;
      if (s.ok()) s = checker.Step(query);
      ASSERT_TRUE(s.ok()) << s.ToString();

      // An effectively-unbounded cap must change nothing; the router
      // threads it through the shared-bound fan-out path.
      auto capped = client.ReverseKRanksCapped(
          query.Row(), static_cast<uint32_t>(query.k), int64_t{1} << 60);
      ASSERT_TRUE(capped.ok()) << capped.status().ToString();
      EXPECT_EQ(capped.value(),
                oracle.value().ReverseKRanks(query.Row(), query.k))
          << "op " << op;
    }

    auto rtk_batch = client.ReverseTopKBatch(probes, 5);
    ASSERT_TRUE(rtk_batch.ok()) << rtk_batch.status().ToString();
    auto rkr_batch = client.ReverseKRanksBatch(probes, 5);
    ASSERT_TRUE(rkr_batch.ok()) << rkr_batch.status().ToString();
    ASSERT_EQ(rtk_batch.value().size(), probes.size());
    ASSERT_EQ(rkr_batch.value().size(), probes.size());
    EXPECT_EQ(rtk_batch.value(), oracle.value().ReverseTopKBatch(probes, 5));
    EXPECT_EQ(rkr_batch.value(),
              oracle.value().ReverseKRanksBatch(probes, 5));

    const Status live = checker.CheckLive();
    EXPECT_TRUE(live.ok()) << live.ToString();

    StopCluster();
  }
}

/// Degraded-never-wrong: SIGKILL one of two workers and require every
/// subsequent answer to be flagged kDegraded with the exact coverage
/// bitmap, with a payload equal to the oracle restricted to the live
/// shard's weights. No weight churn before the kill, so ownership is the
/// build-time round robin: shard s owns the weights with id % 2 == s.
TEST_F(DistRouterTest, KilledShardDegradesWithAccurateCoverage) {
  StartCluster(2);
  if (HasFatalFailure() || HasFailure()) return;
  RemoteClient client = ConnectRouter();
  if (HasFailure()) return;

  DynamicIndexOptions oracle_options;
  auto oracle = DynamicGirIndex::Build(points_, weights_, oracle_options);
  ASSERT_TRUE(oracle.ok());

  KillShard(1);
  if (HasFatalFailure()) return;

  std::mt19937_64 rng(921);
  for (int probe = 0; probe < 4; ++probe) {
    const std::vector<double> q = RandomPointRow(rng, kDim);
    const ConstRow qrow(q.data(), kDim);
    const size_t k = 3 + probe;

    auto rtk = client.ReverseTopK(qrow, static_cast<uint32_t>(k));
    ASSERT_TRUE(rtk.ok()) << rtk.status().ToString() << ReadLogs();
    EXPECT_TRUE(client.last_degraded()) << "probe " << probe;
    EXPECT_EQ(client.last_shard_count(), 2u);
    EXPECT_EQ(client.last_coverage(), 1u) << "probe " << probe;
    // RTK is a filter (every weight ranking the query above k), so the
    // covered-shards answer is exactly the full answer minus the dead
    // shard's weights (odd ids).
    ReverseTopKResult want_rtk;
    for (VectorId id : oracle.value().ReverseTopK(qrow, k)) {
      if (id % 2 == 0) want_rtk.push_back(id);
    }
    EXPECT_EQ(rtk.value(), want_rtk) << "probe " << probe;

    auto rkr = client.ReverseKRanks(qrow, static_cast<uint32_t>(k));
    ASSERT_TRUE(rkr.ok()) << rkr.status().ToString();
    EXPECT_TRUE(client.last_degraded());
    EXPECT_EQ(client.last_coverage(), 1u);
    ReverseKRanksResult want_rkr;
    for (const RankedWeight& entry : oracle.value().ReverseKRanks(
             qrow, oracle.value().live_weight_count())) {
      if (entry.weight_id % 2 == 0 && want_rkr.size() < k) {
        want_rkr.push_back(entry);
      }
    }
    EXPECT_EQ(rkr.value(), want_rkr) << "probe " << probe;
  }

  // Mutations: a weight insert whose round-robin owner is the live shard
  // succeeds completely (kOk, not degraded); one owned by the dead shard
  // is acked degraded with empty coverage and applied nowhere. 48 initial
  // weights → the cursor is at 48, so owners alternate 0, 1, 0, ...
  const std::vector<double> w = RandomWeightRow(rng, kDim);
  ASSERT_TRUE(client.InsertWeight(ConstRow(w.data(), kDim)).ok());
  EXPECT_FALSE(client.last_degraded()) << "live-owner insert";
  ASSERT_TRUE(client.InsertWeight(ConstRow(w.data(), kDim)).ok());
  EXPECT_TRUE(client.last_degraded()) << "dead-owner insert";
  EXPECT_EQ(client.last_coverage(), 0u);

  // Broadcast point ops keep working, flagged degraded with the live
  // shard's bit set.
  const std::vector<double> p = RandomPointRow(rng, kDim);
  ASSERT_TRUE(client.InsertPoint(ConstRow(p.data(), kDim)).ok());
  EXPECT_TRUE(client.last_degraded());
  EXPECT_EQ(client.last_coverage(), 1u);
}

/// A delete id that does not fit a VectorId is rejected at the router's
/// front end, as gir_serve rejects it, instead of being truncated to a
/// 32-bit id that names some other live row.
TEST_F(DistRouterTest, OutOfRangeDeleteIdIsRejectedThroughTheRouter) {
  StartCluster(2);
  if (HasFatalFailure() || HasFailure()) return;
  RemoteClient client = ConnectRouter();
  if (HasFailure()) return;

  const Status point = client.DeletePoint(uint64_t{1} << 32);
  EXPECT_EQ(point.code(), StatusCode::kInvalidArgument) << point.ToString();
  EXPECT_EQ(client.last_net_status(), NetStatus::kInvalidArgument);
  const Status weight = client.DeleteWeight(uint64_t{1} << 32);
  EXPECT_EQ(weight.code(), StatusCode::kInvalidArgument) << weight.ToString();

  auto info = client.Info();
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info.value().live_points, points_.size());
  EXPECT_EQ(info.value().live_weights, weights_.size());
  EXPECT_EQ(client.last_index_version(), 0u);
}

}  // namespace
}  // namespace gir
