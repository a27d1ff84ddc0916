// Distributed-router throughput and degraded-mode accounting
// (DESIGN.md §18) — every measured request is equality-gated against an
// in-process DynamicGirIndex oracle, and any divergence, missed degraded
// flag or wrong coverage bitmap exits non-zero: a number from a cluster
// that answers wrong would be noise.
//
// Two phases over a fixed seeded dataset (the "bench dataset
// convention": uniform points and weights at the scale's n/m/d with
// seeds 1181/1182, weight ownership = id % 2 on a 2-shard cluster):
//
//   exact     — point-only churn + queries through the healthy router;
//               every answer must be bit-identical to the oracle and
//               never degraded. Point-only churn keeps the build-time
//               round-robin weight ownership intact, which is what lets
//               the degraded phase verify coverage without mirrored
//               router state.
//   degraded  — run after one shard is SIGKILLed: every answer must be
//               flagged kDegraded with the exact coverage bitmap and
//               equal the oracle restricted to the live shard's weights;
//               the router's STATS must account for the degradation.
//
// Standalone (no flags) it forks its own loopback cluster (2 gir_serve
// shard lanes + gir_router), runs exact, SIGKILLs shard 1, runs
// degraded, then SIGTERMs the survivors and requires clean exits.
// With --connect PORT [--phase exact|degraded] it drives an
// externally-managed cluster instead — the CI smoke spawns the
// processes, runs exact, kills a shard, runs degraded, and owns the
// drain. The degraded phase rebuilds the exact phase's end state by
// replaying the same seeded churn script locally, so the two
// invocations need no shared state beyond the dataset convention.

#include <fcntl.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "bench_util/op_stream.h"
#include "data/generators.h"
#include "data/weights.h"
#include "grid/dynamic_index.h"
#include "grid/index_io.h"
#include "grid/sharded_index.h"
#include "server/client.h"

namespace gir {
namespace {

struct Config {
  size_t n;           // base points
  size_t m;           // base weights (even: 2-shard round robin)
  size_t d;
  size_t churn_ops;   // exact-phase point mutations
  size_t queries;     // per-phase equality-gated probe queries
};

Config ConfigFor(BenchScale scale) {
  switch (scale) {
    case BenchScale::kSmoke:
      return {300, 120, 4, 60, 24};
    case BenchScale::kFull:
      return {8000, 1200, 4, 1500, 200};
    case BenchScale::kQuick:
    default:
      return {2000, 400, 4, 300, 80};
  }
}

constexpr uint64_t kPointSeed = 1181;
constexpr uint64_t kWeightSeed = 1182;
constexpr uint64_t kChurnSeed = 1183;
constexpr uint64_t kProbeSeed = 1184;

[[noreturn]] void Bail(const std::string& why) {
  std::fprintf(stderr, "FAIL: %s\n", why.c_str());
  std::exit(2);
}

/// The exact phase's seeded point-churn script: point inserts, and point
/// deletes while at least 100 points are live. The exact phase checks
/// every op through the router against the oracle; the degraded phase
/// replays it onto the oracle alone to reconstruct the cluster's state
/// in a fresh process.
OpStream ChurnScript(const Config& cfg) {
  return OpStream(kChurnSeed, {.dim = cfg.d,
                               .mix = {.insert_point = 60, .delete_point = 40},
                               .live_points = cfg.n,
                               .live_weights = cfg.m,
                               .min_live_points = 99});
}

RemoteClient ConnectRouter(uint16_t port) {
  RemoteClientOptions options;
  options.connect_ms = 5000;
  options.io_ms = 30000;  // the router absorbs shard-side retry delays
  auto client = RemoteClient::Connect("127.0.0.1", port, options);
  if (!client.ok()) Bail("connect: " + client.status().ToString());
  return std::move(client).value();
}

/// Exact phase: churn + equality-gated queries on a healthy cluster.
void RunExactPhase(uint16_t port, const Dataset& points,
                   const Dataset& weights, const Config& cfg,
                   BenchScale scale, bench::JsonLog& json) {
  RemoteClient client = ConnectRouter(port);
  auto info = client.Info();
  if (!info.ok()) Bail("info: " + info.status().ToString());
  if (info.value().live_points != points.size() ||
      info.value().live_weights != weights.size() ||
      info.value().dim != cfg.d) {
    Bail("cluster does not match the bench dataset convention "
         "(regenerate with seeds 1181/1182 at this GIR_BENCH_SCALE)");
  }

  DynamicIndexOptions oracle_options;
  auto oracle = DynamicGirIndex::Build(points, weights, oracle_options);
  if (!oracle.ok()) Bail("oracle build failed");

  // Every ack and answer must match the oracle and never be degraded.
  RemoteTarget target(client);
  OracleChecker checker(oracle.value(), target, kChurnSeed);
  OpStream churn = ChurnScript(cfg);
  const double churn_ms = bench::TimeMs([&] {
    for (size_t i = 0; i < cfg.churn_ops; ++i) {
      const Status s = checker.Step(churn.Next());
      if (!s.ok()) Bail("exact churn: " + s.ToString());
    }
  });

  const Dataset probes = GeneratePoints(PointDistribution::kUniform,
                                        cfg.queries, cfg.d, kProbeSeed);
  const double query_ms = bench::TimeMs([&] {
    for (size_t q = 0; q < probes.size(); ++q) {
      const size_t k = 1 + q % 10;
      for (const OpKind kind : {OpKind::kRtk, OpKind::kRkr}) {
        const Status s = checker.Step(QueryOp(kind, probes.row(q), k));
        if (!s.ok()) Bail("exact probe " + std::to_string(q) + ": " +
                          s.ToString());
      }
    }
  });

  const size_t total_queries = 2 * probes.size();
  std::printf("exact     %6zu muts %9.1f ms | %5zu queries %9.1f ms "
              "%8.0f q/s  (all verified)\n",
              cfg.churn_ops, churn_ms, total_queries, query_ms,
              total_queries / (query_ms / 1000.0));
  json.Emit(bench::JsonRecord("dist_router", scale)
                .Add("phase", "exact")
                .Add("churn_ops", cfg.churn_ops)
                .Add("churn_ms", churn_ms)
                .Add("queries", total_queries)
                .Add("query_ms", query_ms)
                .Add("queries_per_sec", total_queries / (query_ms / 1000.0))
                .Add("violations", size_t{0}));
}

/// Degraded phase: shard `dead` is gone; every answer must carry the
/// exact coverage bitmap and match the live-shards-only oracle.
void RunDegradedPhase(uint16_t port, const Dataset& points,
                      const Dataset& weights, const Config& cfg,
                      uint32_t dead, BenchScale scale,
                      bench::JsonLog& json) {
  RemoteClient client = ConnectRouter(port);
  DynamicIndexOptions oracle_options;
  auto oracle = DynamicGirIndex::Build(points, weights, oracle_options);
  if (!oracle.ok()) Bail("oracle build failed");
  // Reconstruct the cluster's post-exact-phase state locally.
  OpStream churn = ChurnScript(cfg);
  for (size_t i = 0; i < cfg.churn_ops; ++i) {
    if (!ApplyOp(oracle.value(), churn.Next()).status.ok()) {
      Bail("oracle churn replay failed");
    }
  }

  const uint64_t want_coverage = uint64_t{1} << (1 - dead);
  const uint32_t live = 1 - dead;
  const Dataset probes = GeneratePoints(PointDistribution::kUniform,
                                        cfg.queries, cfg.d, kProbeSeed + 1);
  size_t degraded_answers = 0;
  const double query_ms = bench::TimeMs([&] {
    for (size_t q = 0; q < probes.size(); ++q) {
      const uint32_t k = 2 + static_cast<uint32_t>(q % 8);
      auto rtk = client.ReverseTopK(probes.row(q), k);
      if (!rtk.ok()) Bail("degraded rtk: " + rtk.status().ToString());
      if (!client.last_degraded() || client.last_shard_count() != 2 ||
          client.last_coverage() != want_coverage) {
        Bail("rtk coverage wrong at probe " + std::to_string(q));
      }
      ++degraded_answers;
      ReverseTopKResult want_rtk;
      for (VectorId id : oracle.value().ReverseTopK(probes.row(q), k)) {
        if (id % 2 == live) want_rtk.push_back(id);
      }
      if (rtk.value() != want_rtk) {
        Bail("degraded rtk diverged at probe " + std::to_string(q));
      }

      auto rkr = client.ReverseKRanks(probes.row(q), k);
      if (!rkr.ok()) Bail("degraded rkr: " + rkr.status().ToString());
      if (!client.last_degraded() ||
          client.last_coverage() != want_coverage) {
        Bail("rkr coverage wrong at probe " + std::to_string(q));
      }
      ++degraded_answers;
      ReverseKRanksResult want_rkr;
      for (const RankedWeight& entry : oracle.value().ReverseKRanks(
               probes.row(q), oracle.value().live_weight_count())) {
        if (entry.weight_id % 2 == live && want_rkr.size() < k) {
          want_rkr.push_back(entry);
        }
      }
      if (rkr.value() != want_rkr) {
        Bail("degraded rkr diverged at probe " + std::to_string(q));
      }
    }
  });

  // Mutation accounting. Point-only exact churn left the round-robin
  // cursor at m (even), so weight-insert owners alternate 0, 1, ...
  std::mt19937_64 rng(kProbeSeed + 2);
  const std::vector<double> p = RandomPointRow(rng, cfg.d);
  Status s = client.InsertPoint(ConstRow(p.data(), cfg.d));
  if (!s.ok()) Bail("degraded insert point: " + s.ToString());
  if (!client.last_degraded() || client.last_coverage() != want_coverage) {
    Bail("degraded point insert has wrong coverage");
  }
  std::vector<double> w(cfg.d, 1.0 / static_cast<double>(cfg.d));
  s = client.InsertWeight(ConstRow(w.data(), cfg.d));
  if (!s.ok()) Bail("weight insert (live owner): " + s.ToString());
  if (dead == 1 && client.last_degraded()) {
    Bail("live-owner weight insert acked degraded");
  }
  s = client.InsertWeight(ConstRow(w.data(), cfg.d));
  if (!s.ok()) Bail("weight insert (dead owner): " + s.ToString());
  // One of the two inserts landed on the dead owner: acked degraded with
  // empty coverage, applied nowhere.
  if (!client.last_degraded() || client.last_coverage() != 0) {
    if (dead == 1) Bail("dead-owner weight insert not acked degraded");
  }

  // The router's own STATS must account for what we just observed.
  auto stats = client.Stats();
  if (!stats.ok()) Bail("stats: " + stats.status().ToString());
  auto counter = [&](const char* key) -> uint64_t {
    const size_t pos = stats.value().find(key);
    if (pos == std::string::npos) Bail(std::string(key) + " missing");
    return std::strtoull(
        stats.value().c_str() + pos + std::strlen(key), nullptr, 10);
  };
  const uint64_t degraded_queries = counter("router.degraded_queries ");
  const uint64_t degraded_mutations = counter("router.degraded_mutations ");
  if (degraded_queries < degraded_answers) {
    Bail("router.degraded_queries undercounts");
  }
  if (degraded_mutations == 0) Bail("router.degraded_mutations is zero");

  std::printf("degraded  %5zu queries %9.1f ms %8.0f q/s  "
              "(all flagged, coverage exact, stats: %llu dq / %llu dm)\n",
              degraded_answers, query_ms,
              degraded_answers / (query_ms / 1000.0),
              static_cast<unsigned long long>(degraded_queries),
              static_cast<unsigned long long>(degraded_mutations));
  json.Emit(bench::JsonRecord("dist_router", scale)
                .Add("phase", "degraded")
                .Add("queries", degraded_answers)
                .Add("query_ms", query_ms)
                .Add("queries_per_sec",
                     degraded_answers / (query_ms / 1000.0))
                .Add("router_degraded_queries",
                     static_cast<size_t>(degraded_queries))
                .Add("router_degraded_mutations",
                     static_cast<size_t>(degraded_mutations))
                .Add("violations", size_t{0}));
}

// ---- standalone cluster management -----------------------------------------

pid_t Spawn(const char* binary, const std::vector<std::string>& args,
            const std::string& log_path) {
  std::vector<std::string> all = {binary};
  for (const std::string& a : args) all.push_back(a);
  const pid_t pid = ::fork();
  if (pid < 0) Bail("fork failed");
  if (pid == 0) {
    const int log =
        ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
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
    if (::waitpid(pid, &status, WNOHANG) != 0) {
      Bail("child died during startup (see " + port_file + "'s log)");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  Bail("port file " + port_file + " never appeared");
}

int Main(int argc, char** argv) {
  uint16_t connect_port = 0;
  std::string phase = "all";
  uint32_t dead = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--connect" && i + 1 < argc) {
      connect_port = static_cast<uint16_t>(std::atoi(argv[++i]));
    } else if (arg == "--phase" && i + 1 < argc) {
      phase = argv[++i];
    } else if (arg == "--dead-shard" && i + 1 < argc) {
      dead = static_cast<uint32_t>(std::atoi(argv[++i]));
    } else {
      std::fprintf(stderr,
                   "usage: bench_dist_router [--connect PORT "
                   "[--phase exact|degraded] [--dead-shard S]]\n");
      return 1;
    }
  }
  if (phase != "all" && phase != "exact" && phase != "degraded") {
    std::fprintf(stderr, "--phase must be exact or degraded\n");
    return 1;
  }
  if (connect_port == 0 && phase != "all") {
    std::fprintf(stderr, "--phase requires --connect\n");
    return 1;
  }
  if (dead > 1) {
    std::fprintf(stderr, "--dead-shard must be 0 or 1\n");
    return 1;
  }

  const BenchScale scale = ReadBenchScale();
  const Config cfg = ConfigFor(scale);
  bench::PrintHeader("dist_router",
                     "Distributed router: equality-gated cluster "
                     "throughput and degraded-mode accounting "
                     "(DESIGN.md SS18)",
                     scale);

  const Dataset points =
      GeneratePoints(PointDistribution::kUniform, cfg.n, cfg.d, kPointSeed);
  const Dataset weights = GenerateWeights(WeightDistribution::kUniform,
                                          cfg.m, cfg.d, kWeightSeed);
  bench::JsonLog json("dist_router");

  if (connect_port != 0) {
    // CI mode: the cluster (and the kill) is managed by the caller.
    if (phase == "exact" || phase == "all") {
      RunExactPhase(connect_port, points, weights, cfg, scale, json);
    }
    if (phase == "degraded" || phase == "all") {
      RunDegradedPhase(connect_port, points, weights, cfg, dead, scale,
                       json);
    }
    std::printf("\nwrote %s\n", json.path().c_str());
    return 0;
  }

#if !defined(GIR_SERVE_PATH) || !defined(GIR_ROUTER_PATH)
  std::fprintf(stderr,
               "standalone mode needs GIR_SERVE_PATH/GIR_ROUTER_PATH; use "
               "--connect\n");
  return 1;
#else
  // Standalone: own the whole cluster lifecycle.
  const std::filesystem::path root =
      std::filesystem::temp_directory_path() /
      ("gir_bench_dist_" + std::to_string(static_cast<unsigned>(::getpid())));
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  const std::string envelope = (root / "shd.bin").string();
  {
    ShardedIndexOptions options;
    options.shards = 2;
    auto sharded = ShardedGirIndex::Build(points, weights, options);
    if (!sharded.ok()) Bail("envelope build failed");
    if (!SaveShardedIndex(envelope, *sharded.value()).ok()) {
      Bail("envelope save failed");
    }
  }

  std::vector<pid_t> shard_pids;
  std::string shard_list;
  for (int s = 0; s < 2; ++s) {
    const std::string port_file =
        (root / ("s" + std::to_string(s) + ".port")).string();
    shard_pids.push_back(Spawn(
        GIR_SERVE_PATH,
        {"--index", envelope, "--shard-lane", std::to_string(s),
         "--read-only", "--port", "0", "--port-file", port_file},
        (root / ("s" + std::to_string(s) + ".log")).string()));
    const uint16_t port = AwaitPort(port_file, shard_pids.back());
    if (!shard_list.empty()) shard_list += ",";
    shard_list += "127.0.0.1:" + std::to_string(port);
  }
  const pid_t router_pid = Spawn(
      GIR_ROUTER_PATH,
      {"--index", envelope, "--shards", shard_list, "--port", "0",
       "--port-file", (root / "r.port").string(), "--retries", "1",
       "--backoff-ms", "5", "--backoff-max-ms", "20", "--breaker-threshold",
       "2", "--breaker-cooldown-ms", "200"},
      (root / "router.log").string());
  const uint16_t router_port = AwaitPort((root / "r.port").string(),
                                         router_pid);

  RunExactPhase(router_port, points, weights, cfg, scale, json);

  // Pull the plug on shard `dead` mid-serve and verify the degradation.
  ::kill(shard_pids[dead], SIGKILL);
  int status = 0;
  ::waitpid(shard_pids[dead], &status, 0);
  RunDegradedPhase(router_port, points, weights, cfg, dead, scale, json);

  // Clean drain of the survivors: SIGTERM must exit 0.
  auto drain = [&](pid_t pid, const char* what) {
    ::kill(pid, SIGTERM);
    int st = 0;
    ::waitpid(pid, &st, 0);
    if (!WIFEXITED(st) || WEXITSTATUS(st) != 0) {
      Bail(std::string(what) + " did not drain cleanly");
    }
  };
  drain(router_pid, "gir_router");
  drain(shard_pids[1 - dead], "gir_serve");
  std::filesystem::remove_all(root);

  std::printf("\nwrote %s\n", json.path().c_str());
  return 0;
#endif
}

}  // namespace
}  // namespace gir

int main(int argc, char** argv) { return gir::Main(argc, argv); }
