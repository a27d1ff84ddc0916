// End-to-end crash-recovery tests (DESIGN.md §17): fork a real gir_serve
// with --wal-dir, SIGKILL it — between acknowledged mutations, mid-churn
// (likely mid-append), and under an aggressive checkpoint cadence (likely
// mid-snapshot) — restart it, and require the recovered process to answer
// bit-identically to an oracle.
//
// Two oracles are used. The scripted test keeps a client-side
// DynamicGirIndex in lockstep with every ACKED mutation: with
// --fsync-policy always and an idle client at kill time, durable state
// equals acked state exactly, so the restarted server must match the
// oracle bit-for-bit — ids, ranks, tie order, live counts. The churn test
// kills at arbitrary moments where durable state may exceed the last ack
// by in-flight admissions, so its oracle is built from the durable
// artifacts themselves (snapshot + WAL read before the restart) and the
// restarted server must match THAT, plus every acked mutation must be
// present in the log.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
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
#include "io/dataset_io.h"
#include "io/wal.h"
#include "server/client.h"

#ifndef GIR_SERVE_PATH
#error "GIR_SERVE_PATH must be defined by the build"
#endif

namespace gir {
namespace {

constexpr size_t kDim = 4;

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("gir_crash_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    points_ = GeneratePoints(PointDistribution::kUniform, 50, kDim, 301);
    weights_ = GenerateWeights(WeightDistribution::kUniform, 60, kDim, 302);
    ASSERT_TRUE(SaveDataset(Path("points.bin"), points_).ok());
    ASSERT_TRUE(SaveDataset(Path("weights.bin"), weights_).ok());
  }
  void TearDown() override {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
    }
    std::filesystem::remove_all(dir_);
  }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }
  std::string WalDir() const { return Path("wal"); }

  /// Forks gir_serve with the given extra flags (on top of the cold
  /// source, WAL dir and port file) and waits for it to accept. The same
  /// flag set must be used for every boot of one WAL dir.
  void StartServer(std::vector<std::string> extra = {}) {
    ASSERT_LT(pid_, 0) << "server already running";
    std::filesystem::remove(Path("port"));
    std::vector<std::string> args = {GIR_SERVE_PATH,
                                     "--points",
                                     Path("points.bin"),
                                     "--weights",
                                     Path("weights.bin"),
                                     "--shards",
                                     "2",
                                     "--wal-dir",
                                     WalDir(),
                                     "--fsync-policy",
                                     "always",
                                     "--port",
                                     "0",
                                     "--port-file",
                                     Path("port")};
    for (std::string& e : extra) args.push_back(std::move(e));

    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      const int log = ::open(Path("server.log").c_str(),
                             O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (log >= 0) {
        ::dup2(log, 1);
        ::dup2(log, 2);
        ::close(log);
      }
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(GIR_SERVE_PATH, argv.data());
      _exit(127);
    }
    pid_ = pid;

    // The port file is written atomically once the listener is up.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < deadline) {
      std::ifstream in(Path("port"));
      int port = 0;
      if (in >> port && port > 0) {
        port_ = static_cast<uint16_t>(port);
        return;
      }
      int status = 0;
      ASSERT_EQ(::waitpid(pid_, &status, WNOHANG), 0)
          << "server died during startup; log:\n"
          << ReadLog();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    FAIL() << "server never wrote the port file; log:\n" << ReadLog();
  }

  void KillServer() {
    ASSERT_GT(pid_, 0);
    ASSERT_EQ(::kill(pid_, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid_, &status, 0), pid_);
    pid_ = -1;
  }

  void StopServerGracefully() {
    ASSERT_GT(pid_, 0);
    ASSERT_EQ(::kill(pid_, SIGTERM), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid_, &status, 0), pid_);
    pid_ = -1;
    ASSERT_TRUE(WIFEXITED(status)) << ReadLog();
    ASSERT_EQ(WEXITSTATUS(status), 0) << ReadLog();
  }

  std::string ReadLog() const {
    std::ifstream in(Path("server.log"));
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }

  RemoteClient Connect() {
    auto client = RemoteClient::Connect("127.0.0.1", port_);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  std::filesystem::path dir_;
  Dataset points_{kDim};
  Dataset weights_{kDim};
  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

/// SIGKILL between acknowledged mutations, repeatedly, with checkpoints
/// racing the kills. With fsync always and an idle client, durable ==
/// acked, so the restarted server must be bit-identical to an oracle fed
/// exactly the acked stream — across every crash/restart cycle.
TEST_F(CrashRecoveryTest, KillBetweenAcksRecoversBitIdentically) {
  DynamicIndexOptions oracle_options;
  auto oracle = DynamicGirIndex::Build(points_, weights_, oracle_options);
  ASSERT_TRUE(oracle.ok());
  const Dataset probes =
      GeneratePoints(PointDistribution::kUniform, 8, kDim, 309);

  OpStream stream(310, {.dim = kDim,
                        .mix = {.insert_point = 35, .delete_point = 20,
                                .insert_weight = 25, .delete_weight = 20},
                        .live_points = points_.size(),
                        .live_weights = weights_.size(),
                        .min_live_points = 20,
                        .min_live_weights = 20});
  // The live counts and the RKR probes, after every boot and before
  // every kill.
  const auto matches_oracle = [&](OracleChecker& checker) {
    Status s = checker.CheckLive();
    if (s.ok()) s = checker.CheckQueries(OpKind::kRkr, probes, 5);
    return s;
  };
  for (int cycle = 0; cycle < 3; ++cycle) {
    SCOPED_TRACE("cycle " + std::to_string(cycle));
    // An aggressive checkpoint cadence so later cycles recover from a
    // snapshot + suffix, not the cold source + full log.
    StartServer({"--checkpoint-ops", "25"});
    if (HasFatalFailure()) return;
    RemoteClient client = Connect();
    RemoteTarget target(client);
    OracleChecker checker(oracle.value(), target, stream.seed());

    Status s = matches_oracle(checker);
    ASSERT_TRUE(s.ok()) << "post-boot: " << s.ToString();
    for (int op = 0; op < 40 && s.ok(); ++op) s = checker.Step(stream.Next());
    if (s.ok()) s = matches_oracle(checker);
    ASSERT_TRUE(s.ok()) << "pre-kill: " << s.ToString();
    KillServer();
  }

  // One final boot after the last kill: the whole acked history survived
  // three crashes.
  StartServer({"--checkpoint-ops", "25"});
  if (HasFatalFailure()) return;
  RemoteClient client = Connect();
  RemoteTarget target(client);
  OracleChecker checker(oracle.value(), target, stream.seed());
  const Status s = matches_oracle(checker);
  EXPECT_TRUE(s.ok()) << "final-boot: " << s.ToString();
}

/// SIGKILL at arbitrary moments while a writer hammers mutations — the
/// kill lands mid-append, mid-background-compaction or mid-snapshot. The
/// restarted server must match an oracle built from the durable artifacts
/// (snapshot + logs as read before the restart), and every acknowledged
/// mutation must be in those artifacts.
TEST_F(CrashRecoveryTest, KillMidChurnRecoversTheDurableHistory) {
  const Dataset probes =
      GeneratePoints(PointDistribution::kUniform, 6, kDim, 311);
  std::mt19937_64 kill_rng(312);

  for (int cycle = 0; cycle < 3; ++cycle) {
    SCOPED_TRACE("cycle " + std::to_string(cycle));
    StartServer({"--checkpoint-ops", "10"});
    if (HasFatalFailure()) return;

    std::atomic<uint64_t> acked{0};
    std::thread writer([this, &acked, cycle] {
      auto client = RemoteClient::Connect("127.0.0.1", port_);
      if (!client.ok()) return;
      // The stream starts at zero live points and counts only this
      // writer's own inserts, so its delete ids stay safely in range.
      OpStream stream(400 + cycle, {.dim = kDim,
                                    .mix = {.insert_point = 60,
                                            .delete_point = 40}});
      RemoteTarget target(client.value());
      while (true) {
        const Status s = target.Apply(stream.Next()).status;
        if (s.ok()) {
          acked.fetch_add(1, std::memory_order_relaxed);
        } else if (s.code() == StatusCode::kIOError ||
                   s.code() == StatusCode::kNotFound ||
                   s.code() == StatusCode::kCorruption) {
          return;  // the kill landed
        }
      }
    });

    std::this_thread::sleep_for(
        std::chrono::milliseconds(100 + kill_rng() % 300));
    KillServer();
    writer.join();

    // Reconstruct from the durable artifacts exactly as the boot path
    // will: snapshot when present (else the cold source), plus the log
    // suffix. Same options as the serve flags above.
    Result<std::unique_ptr<ShardedGirIndex>> oracle =
        Status::Internal("unset");
    if (std::filesystem::exists(WalDir() + "/snapshot.gir")) {
      oracle = LoadShardedIndex(WalDir() + "/snapshot.gir",
                                /*background_compact=*/true);
    } else {
      ShardedIndexOptions options;
      options.shards = 2;
      options.background_compact = true;
      options.dynamic.gir.partitions = 32;
      oracle = ShardedGirIndex::Build(points_, weights_, options);
    }
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    auto merged = ReadWalDir(WalDir());
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    ASSERT_TRUE(oracle.value()->ReplayWal(merged.value().records).ok());

    // fsync always: an acked mutation is durable, so the durable history
    // (snapshot prefix + log suffix) is at least as long as the ack count.
    uint64_t durable_seq = merged.value().max_seq;
    for (const WalFileState& f : merged.value().files) {
      durable_seq = std::max(durable_seq, f.snapshot_sequence);
    }
    EXPECT_GE(durable_seq, acked.load()) << ReadLog();

    // The recovered process answers exactly like the durable oracle.
    StartServer({"--checkpoint-ops", "10"});
    if (HasFatalFailure()) return;
    RemoteClient client = Connect();
    auto info = client.Info();
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    EXPECT_EQ(info.value().live_points, oracle.value()->live_point_count());
    EXPECT_EQ(info.value().live_weights,
              oracle.value()->live_weight_count());
    for (size_t q = 0; q < probes.size(); ++q) {
      auto got = client.ReverseKRanks(probes.row(q), 5);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got.value(), oracle.value()->ReverseKRanks(probes.row(q), 5))
          << "probe " << q;
    }
    EXPECT_NE(ReadLog().find("wal: recovered to seq"), std::string::npos);
    KillServer();
  }
}

/// A clean SIGTERM shutdown writes a final checkpoint: the snapshot
/// carries the whole history and the rotated logs are empty, so the next
/// boot replays nothing.
TEST_F(CrashRecoveryTest, CleanShutdownCheckpointsAndRebootsFromSnapshot) {
  StartServer();
  if (HasFatalFailure()) return;
  {
    RemoteClient client = Connect();
    std::mt19937_64 rng(501);
    for (int op = 0; op < 20; ++op) {
      const std::vector<double> row = op % 2 == 0
                                          ? RandomWeightRow(rng, kDim)
                                          : RandomPointRow(rng, kDim);
      ASSERT_TRUE((op % 2 == 0
                       ? client.InsertWeight(ConstRow(row.data(), kDim))
                       : client.InsertPoint(ConstRow(row.data(), kDim)))
                      .ok());
    }
  }
  StopServerGracefully();

  ASSERT_TRUE(std::filesystem::exists(WalDir() + "/snapshot.gir"));
  auto merged = ReadWalDir(WalDir());
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_TRUE(merged.value().records.empty())
      << "final checkpoint left an unrotated log";
  auto snapshot = LoadShardedIndex(WalDir() + "/snapshot.gir");
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(snapshot.value()->live_point_count(), points_.size() + 10);
  EXPECT_EQ(snapshot.value()->live_weight_count(), weights_.size() + 10);

  StartServer();
  if (HasFatalFailure()) return;
  RemoteClient client = Connect();
  auto info = client.Info();
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info.value().live_points, points_.size() + 10);
  EXPECT_EQ(info.value().live_weights, weights_.size() + 10);
  EXPECT_NE(ReadLog().find("snapshot + 0 log records"), std::string::npos)
      << ReadLog();
}

}  // namespace
}  // namespace gir
