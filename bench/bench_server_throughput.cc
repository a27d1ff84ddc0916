// Closed-loop throughput of the GIRNET01 query server: N
// concurrent clients each keep exactly one reverse top-k request in
// flight over their own connection, and the server's micro-batching
// scheduler coalesces compatible requests into shared batched sweeps.
// The same workload then runs against a server configured with
// max_batch=1 — every request its own sweep — so the ratio isolates
// exactly what micro-batching buys: one scheduler wakeup, one shared
// index lock and one amortized batch kernel per micro-batch instead of
// per request. Both arms run with the result cache off, so every request
// reaches the scheduler, and the micro-batched arm runs the shipped
// work-conserving scheduler (default batch_wait_us = 0): batches form
// only from requests that queued while the previous batch executed.
// Acceptance (quick scale, 64 clients): micro-batched throughput >= 5x
// the max_batch=1 server, enforced as a hard failure at that scale.
//
// Every response is checked bit-identical against a locally computed
// answer before any number is emitted (the engines are exact, so the
// expected answer is engine- and batch-independent). A third arm runs a
// deliberately overloaded server — tiny admission queue, long batch
// wait — and requires both explicit kOverloaded rejects and correct
// answers for everything admitted: bounded memory with loud rejects,
// never silent queueing.
//
// Every record stamps the thread counts the run actually used — the
// server's accept+scheduler+reader threads and the router's shard
// workers (or the load generator's client threads in --connect mode) —
// not the --threads flag's value, which this bench ignores: a closed
// loop's concurrency is set by --clients and the server's own threads.
//
// Flags:
//   --connect PORT --points FILE --weights FILE
//       [--host H] [--seconds S] [--clients N] [--k K]
//     load-generator mode against an already-running gir_serve over the
//     same data files (the CI smoke step): closed-loop mixed rtk/rkr
//     traffic plus one wire-batch round trip, all equality-gated
//     against a locally built index. Aborts (nonzero exit) on any
//     mismatch.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "grid/dynamic_index.h"
#include "grid/sharded_index.h"
#include "io/dataset_io.h"
#include "server/client.h"
#include "server/server.h"

namespace gir {
namespace {

using Clock = std::chrono::steady_clock;

struct Config {
  size_t n;
  size_t m;
  size_t d;
  size_t clients;
  double seconds;  // per throughput arm
  size_t pool;     // distinct query rows (expected answers precomputed)
};

/// The query pool with its locally computed ground truth. The engines
/// are exact, so these answers must match any server configuration
/// bit-for-bit.
struct Workload {
  Dataset pool{0};
  std::vector<ReverseTopKResult> rtk;
  std::vector<ReverseKRanksResult> rkr;
  uint32_t k = 8;
};

struct Tally {
  size_t ok = 0;
  size_t overloaded = 0;
};

[[noreturn]] void Fatal(const std::string& message) {
  std::fprintf(stderr, "FATAL: %s\n", message.c_str());
  std::abort();
}

Workload MakeWorkload(const DynamicGirIndex& index, const Dataset& points,
                      size_t pool_size, uint32_t k, bool with_rkr) {
  Workload w;
  w.k = k;
  w.pool = Dataset(points.dim());
  for (size_t qi : PickQueryIndices(points.size(), pool_size, 5500)) {
    w.pool.AppendUnchecked(points.row(qi));
  }
  w.rtk.resize(w.pool.size());
  if (with_rkr) w.rkr.resize(w.pool.size());
  for (size_t i = 0; i < w.pool.size(); ++i) {
    w.rtk[i] = index.ReverseTopK(w.pool.row(i), k);
    if (with_rkr) w.rkr[i] = index.ReverseKRanks(w.pool.row(i), k);
  }
  return w;
}

/// One closed-loop client: connect, fire one request at a time until the
/// shared deadline, equality-gate every answered request. kOverloaded is
/// counted and retried after a short backoff; any other failure is
/// fatal — the throughput arms never legitimately reject.
Tally RunOneClient(const std::string& host, uint16_t port,
                   const Workload& w, bool mixed, size_t client_id,
                   Clock::time_point deadline) {
  auto connected = RemoteClient::Connect(host, port);
  if (!connected.ok()) {
    Fatal("connect: " + connected.status().ToString());
  }
  RemoteClient client = std::move(connected).value();
  Tally tally;
  const bool use_rkr = mixed && client_id % 2 == 1;
  size_t row = (client_id * 17) % w.pool.size();
  while (Clock::now() < deadline) {
    bool answered = false;
    if (use_rkr) {
      auto got = client.ReverseKRanks(w.pool.row(row), w.k);
      if (got.ok()) {
        answered = true;
        const ReverseKRanksResult& expect = w.rkr[row];
        const ReverseKRanksResult& actual = got.value();
        bool same = expect.size() == actual.size();
        for (size_t i = 0; same && i < expect.size(); ++i) {
          same = expect[i].weight_id == actual[i].weight_id &&
                 expect[i].rank == actual[i].rank;
        }
        if (!same) Fatal("remote RKR answer differs from local");
      }
    } else {
      auto got = client.ReverseTopK(w.pool.row(row), w.k);
      if (got.ok()) {
        answered = true;
        if (got.value() != w.rtk[row]) {
          Fatal("remote RTK answer differs from local");
        }
      }
    }
    if (answered) {
      ++tally.ok;
    } else if (client.last_net_status() == NetStatus::kOverloaded) {
      ++tally.overloaded;
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    } else {
      Fatal("unexpected rejection (status " +
            std::to_string(static_cast<int>(client.last_net_status())) +
            ")");
    }
    row = (row + 1) % w.pool.size();
  }
  return tally;
}

Tally RunClients(const std::string& host, uint16_t port, const Workload& w,
                 bool mixed, size_t clients, double seconds,
                 double* elapsed_ms) {
  std::vector<Tally> tallies(clients);
  *elapsed_ms = bench::TimeMs([&] {
    const auto deadline =
        Clock::now() + std::chrono::microseconds(
                           static_cast<int64_t>(seconds * 1e6));
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        tallies[c] = RunOneClient(host, port, w, mixed, c, deadline);
      });
    }
    for (std::thread& t : threads) t.join();
  });
  Tally total;
  for (const Tally& t : tallies) {
    total.ok += t.ok;
    total.overloaded += t.overloaded;
  }
  return total;
}

/// Reads one `key value` counter out of a metrics snapshot (the STATS
/// payload / ServerMetrics::Render text).
size_t ParseMetric(const std::string& text, const std::string& key) {
  size_t pos = 0;
  const std::string needle = key + " ";
  while (pos < text.size()) {
    const size_t eol = text.find('\n', pos);
    const std::string line =
        text.substr(pos, eol == std::string::npos ? eol : eol - pos);
    if (line.rfind(needle, 0) == 0) {
      return std::strtoull(line.c_str() + needle.size(), nullptr, 10);
    }
    if (eol == std::string::npos) break;
    pos = eol + 1;
  }
  return 0;
}

double Qps(size_t requests, double ms) {
  return ms > 0.0 ? 1000.0 * static_cast<double>(requests) / ms : 0.0;
}

/// One in-process server arm: start, drive the closed loop, snapshot the
/// metrics, drain. Returns the achieved qps.
double RunArm(const char* arm, ShardedGirIndex* index, ServerOptions options,
              const Workload& w, const Config& config, double seconds,
              BenchScale scale, bench::JsonLog& json, Tally* out_tally) {
  QueryServer server(index, options);
  const Status started = server.Start();
  if (!started.ok()) Fatal("server start: " + started.ToString());

  // Real thread counts, not the --threads flag: one accept thread, one
  // scheduler thread, one reader per client connection, plus the sharded
  // router's lane per shard.
  const size_t server_threads = 2 + config.clients;
  const size_t shard_workers = index->shard_count();
  bench::BenchThreads() = server_threads + shard_workers;

  double elapsed_ms = 0.0;
  const Tally tally = RunClients(options.host, server.port(), w,
                                 /*mixed=*/false, config.clients, seconds,
                                 &elapsed_ms);
  const std::string stats = server.metrics().Render();
  server.Shutdown();

  const size_t completed = ParseMetric(stats, "requests_completed");
  const size_t batches = ParseMetric(stats, "batches_dispatched");
  const double qps = Qps(tally.ok, elapsed_ms);
  bench::JsonRecord record =
      bench::JsonRecord("server_throughput", scale)
          .Add("arm", arm)
          .Add("d", config.d)
          .Add("n", config.n)
          .Add("num_weights", config.m)
          .Add("k", static_cast<size_t>(w.k))
          .Add("clients", config.clients)
          .Add("server_threads", server_threads)
          .Add("shard_workers", shard_workers)
          .Add("shards", index->shard_count())
          .Add("max_batch", static_cast<size_t>(options.max_batch))
          .Add("batch_wait_us", static_cast<size_t>(options.batch_wait_us))
          .Add("queue_limit", static_cast<size_t>(options.queue_limit))
          .Add("elapsed_ms", elapsed_ms)
          .Add("ok", tally.ok)
          .Add("overloaded", tally.overloaded)
          .Add("qps", qps)
          .Add("requests_completed", completed)
          .Add("batches_dispatched", batches)
          .Add("mean_batch_queries",
               batches > 0 ? static_cast<double>(completed) /
                                 static_cast<double>(batches)
                           : 0.0)
          .Add("rejected_overload",
               ParseMetric(stats, "rejected_overload"));
  json.Emit(record);
  if (out_tally != nullptr) *out_tally = tally;
  return qps;
}

void RunConfig(const Config& config, BenchScale scale,
               bench::JsonLog& json) {
  Dataset points = GenerateUniform(config.n, config.d, 6100 + config.d);
  Dataset weights =
      GenerateWeightsUniform(config.m, config.d, 6200 + config.d);
  // Blocked scan: its batched sweep accumulates each (point block,
  // weight) bound once per query batch (ISSUE 3 measured >= 14x at this
  // shape), so coalescing is what the single-sweep server leaves on the
  // table. The tau engine resolves single queries so cheaply that
  // batching has nothing to amortize.
  DynamicIndexOptions options;
  options.gir.scan_mode = ScanMode::kBlocked;
  auto built = DynamicGirIndex::Build(points, weights, options);
  if (!built.ok()) Fatal("build: " + built.status().ToString());
  DynamicGirIndex index = std::move(built).value();
  const Workload w =
      MakeWorkload(index, points, config.pool, 8, /*with_rkr=*/false);

  // The server fronts a one-shard router, so the arms measure
  // micro-batching, not shard fan-out (bench_shard_scaling owns that
  // axis).
  ShardedIndexOptions serve_options;
  serve_options.shards = 1;
  serve_options.dynamic = options;
  auto served = ShardedGirIndex::Build(points, weights, serve_options);
  if (!served.ok()) Fatal("build: " + served.status().ToString());

  // Arm 1: micro-batched at the default (work-conserving) window.
  // Arm 2: identical server with max_batch=1. The result cache is off in
  // both, or the closed loop's small pool would be answered from it and
  // the ratio would measure the cache instead of batching.
  ServerOptions batched;
  batched.max_batch = 64;
  batched.enable_cache = false;
  const double batched_qps = RunArm("microbatch", served.value().get(),
                                    batched, w, config, config.seconds,
                                    scale, json, nullptr);
  ServerOptions single;
  single.max_batch = 1;
  single.enable_cache = false;
  const double single_qps = RunArm("single", served.value().get(), single, w,
                                   config, config.seconds, scale, json,
                                   nullptr);

  const double speedup =
      single_qps > 0.0 ? batched_qps / single_qps : 0.0;
  json.Emit(bench::JsonRecord("server_throughput", scale)
                .Add("arm", "speedup")
                .Add("clients", config.clients)
                .Add("microbatch_qps", batched_qps)
                .Add("single_qps", single_qps)
                .Add("batch_speedup", speedup));
  if (scale == BenchScale::kQuick && speedup < 5.0) {
    Fatal("batch_speedup " + std::to_string(speedup) +
          "x is below the 5x floor at quick scale");
  }

  // Arm 3: overload. An admission queue far smaller than the client
  // count plus a long batch wait forces rejects; the gate is that they
  // are explicit (kOverloaded within the arm, rejected_overload in the
  // metrics) and that every admitted request still answers correctly
  // (RunOneClient aborts otherwise).
  ServerOptions overload;
  overload.max_batch = 256;
  overload.batch_wait_us = 50'000;
  overload.queue_limit = 4;
  Tally tally;
  RunArm("overload", served.value().get(), overload, w, config,
         std::min(config.seconds, 0.6), scale, json, &tally);
  if (tally.overloaded == 0) {
    Fatal("overload arm produced no kOverloaded rejects");
  }
  if (tally.ok == 0) {
    Fatal("overload arm answered nothing");
  }
}

int RunExternal(const std::string& host, uint16_t port,
                const std::string& points_path,
                const std::string& weights_path, double seconds,
                size_t clients, uint32_t k, BenchScale scale) {
  auto points = LoadDataset(points_path);
  if (!points.ok()) Fatal("points: " + points.status().ToString());
  auto weights = LoadDataset(weights_path);
  if (!weights.ok()) Fatal("weights: " + weights.status().ToString());
  // Any build options give the same (exact) answers the server computes.
  auto built =
      DynamicGirIndex::Build(points.value(), weights.value(), {});
  if (!built.ok()) Fatal("build: " + built.status().ToString());
  const DynamicGirIndex index = std::move(built).value();
  const Workload w = MakeWorkload(
      index, points.value(), std::min<size_t>(points.value().size(), 128),
      k, /*with_rkr=*/true);

  // One wire-batch round trip first: the whole pool as a single batch
  // request must come back identical to the local per-row answers.
  auto connected = RemoteClient::Connect(host, port);
  if (!connected.ok()) Fatal("connect: " + connected.status().ToString());
  RemoteClient probe = std::move(connected).value();
  auto batch = probe.ReverseTopKBatch(w.pool, k);
  if (!batch.ok()) Fatal("wire batch: " + batch.status().ToString());
  if (batch.value() != w.rtk) {
    Fatal("wire-batch RTK answers differ from local");
  }

  double elapsed_ms = 0.0;
  const Tally tally = RunClients(host, port, w, /*mixed=*/true, clients,
                                 seconds, &elapsed_ms);
  if (tally.ok == 0) Fatal("no request completed");
  auto stats = probe.Stats();
  if (!stats.ok()) Fatal("stats: " + stats.status().ToString());

  // The server's threads live in another process; what this record can
  // vouch for is the load generator's own concurrency.
  bench::BenchThreads() = clients;
  bench::JsonLog json("server_throughput");
  json.Emit(bench::JsonRecord("server_throughput", scale)
                .Add("arm", "external")
                .Add("clients", clients)
                .Add("client_threads", clients)
                .Add("k", static_cast<size_t>(k))
                .Add("elapsed_ms", elapsed_ms)
                .Add("ok", tally.ok)
                .Add("overloaded", tally.overloaded)
                .Add("qps", Qps(tally.ok, elapsed_ms))
                .Add("requests_completed",
                     ParseMetric(stats.value(), "requests_completed"))
                .Add("batches_dispatched",
                     ParseMetric(stats.value(), "batches_dispatched")));
  std::printf("external load run: %zu ok, %zu overloaded, %.0f qps — all "
              "answers matched the local index\n",
              tally.ok, tally.overloaded, Qps(tally.ok, elapsed_ms));
  return 0;
}

int Run(int argc, char** argv) {
  const BenchScale scale = ReadBenchScale();

  // Load-generator flags (--connect mode).
  bool connect = false;
  uint16_t port = 0;
  std::string host = "127.0.0.1";
  std::string points_path;
  std::string weights_path;
  double seconds = 5.0;
  size_t clients = 16;
  uint32_t k = 8;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s expects a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--connect") {
      connect = true;
      port = static_cast<uint16_t>(std::atoi(value()));
    } else if (arg == "--host") {
      host = value();
    } else if (arg == "--points") {
      points_path = value();
    } else if (arg == "--weights") {
      weights_path = value();
    } else if (arg == "--seconds") {
      seconds = std::atof(value());
    } else if (arg == "--clients") {
      clients = static_cast<size_t>(std::atoi(value()));
    } else if (arg == "--k") {
      k = static_cast<uint32_t>(std::atoi(value()));
    } else {
      std::fprintf(stderr, "error: unknown flag %s\n", arg.c_str());
      std::exit(2);
    }
  }
  if (connect) {
    if (points_path.empty() || weights_path.empty()) {
      std::fprintf(stderr,
                   "error: --connect requires --points and --weights\n");
      std::exit(2);
    }
    return RunExternal(host, port, points_path, weights_path, seconds,
                       clients, k, scale);
  }

  bench::PrintHeader(
      "server-throughput",
      "Closed-loop clients against the GIRNET01 micro-batching server vs\n"
      "the same server at max_batch=1, every answer equality-gated\n"
      "against the local index, plus a bounded-queue overload arm",
      scale);

  Config config;
  switch (scale) {
    case BenchScale::kSmoke:
      config = {5'000, 500, 8, 8, 0.3, 128};
      break;
    case BenchScale::kQuick:
      config = {10'000, 1'000, 8, 64, 1.0, 256};
      break;
    case BenchScale::kFull:
      config = {10'000, 1'000, 8, 64, 3.0, 256};
      break;
  }

  bench::JsonLog json("server_throughput");
  RunConfig(config, scale, json);
  std::printf(
      "\nExpected shape: batch_speedup >= 5x at the quick scale's 64\n"
      "clients (a hard failure there), cache off in both arms — with\n"
      "max_batch=1 every request pays its own scheduler wakeup,\n"
      "shared-lock acquisition and sweep setup; micro-batching pays\n"
      "them once per coalesced batch and amortizes the batched kernel\n"
      "on top. The overload arm must show nonzero explicit\n"
      "rejects (bounded queue) while every admitted answer stays exact.\n");
  return 0;
}

}  // namespace
}  // namespace gir

int main(int argc, char** argv) {
  gir::bench::ParseThreadsFlag(&argc, argv);
  return gir::Run(argc, argv);
}
