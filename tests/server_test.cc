// End-to-end tests of the GIRNET01 query server (server/server.h): a real
// QueryServer on a loopback ephemeral port, driven through RemoteClient
// and — for the hostile-frame cases — a raw socket. Covers answer
// equality with local execution, micro-batch coalescing, admission
// control under overload, malformed/hostile frames, deadline expiry,
// graceful drain, and churn-vs-query bit-identity via serial replay of
// the version stamps.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_util/op_stream.h"
#include "data/generators.h"
#include "data/weights.h"
#include "grid/dynamic_index.h"
#include "grid/sharded_index.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"

// TSan slows execution ~10x, which shifts the timing-sensitive
// saturation assertions; the affected tests relax (never skip) there.
#if defined(__SANITIZE_THREAD__)
#define GIR_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define GIR_TSAN_BUILD 1
#endif
#endif
#ifndef GIR_TSAN_BUILD
#define GIR_TSAN_BUILD 0
#endif

namespace gir {
namespace {

Dataset MakePoints(size_t n, size_t d, uint64_t seed) {
  return GeneratePoints(PointDistribution::kUniform, n, d, seed);
}

Dataset MakeWeights(size_t m, size_t d, uint64_t seed) {
  return GenerateWeights(WeightDistribution::kUniform, m, d, seed);
}

std::unique_ptr<ShardedGirIndex> BuildIndex(const Dataset& points,
                                            const Dataset& weights,
                                            ScanMode mode = ScanMode::kBlocked,
                                            size_t shards = 1) {
  ShardedIndexOptions options;
  options.shards = shards;
  options.dynamic.gir.scan_mode = mode;
  auto index = ShardedGirIndex::Build(points, weights, options);
  EXPECT_TRUE(index.ok()) << index.status().ToString();
  return std::move(index).value();
}

RemoteClient MustConnect(const QueryServer& server) {
  auto client = RemoteClient::Connect("127.0.0.1", server.port());
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return std::move(client).value();
}

/// Raw TCP connection for the hostile-frame tests; sends whatever bytes
/// the test forges, bypassing the client's well-formed encoders.
class RawConnection {
 public:
  explicit RawConnection(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~RawConnection() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return connected_; }
  int fd() const { return fd_; }

  void SendRaw(const std::string& bytes) {
    ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }

  /// Reads one response frame and decodes it; false once the server has
  /// hung up.
  bool ReadResponse(NetResponse* response) {
    std::string body;
    if (!ReadFrameBody(fd_, kMaxFrameBytes, &body).ok()) return false;
    return DecodeResponseBody(body, response);
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

TEST(QueryServerTest, StartsOnEphemeralPortAndStopsTwice) {
  const Dataset points = MakePoints(200, 3, 1);
  const Dataset weights = MakeWeights(50, 3, 2);
  auto index = BuildIndex(points, weights);
  QueryServer server(index.get(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  EXPECT_GT(server.port(), 0);
  server.Shutdown();
  server.Shutdown();  // idempotent
}

TEST(QueryServerTest, PingInfoAndStatsRoundTrip) {
  const Dataset points = MakePoints(300, 4, 3);
  const Dataset weights = MakeWeights(80, 4, 4);
  auto index = BuildIndex(points, weights, ScanMode::kBlocked, /*shards=*/2);
  QueryServer server(index.get(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  RemoteClient client = MustConnect(server);
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_EQ(client.last_index_version(), 0u);

  auto info = client.Info();
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().dim, 4u);
  EXPECT_EQ(info.value().live_points, 300u);
  EXPECT_EQ(info.value().live_weights, 80u);
  EXPECT_EQ(info.value().generation, 0u);
  EXPECT_EQ(info.value().dirty, 0u);

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats.value().find("requests_received"), std::string::npos);
  EXPECT_NE(stats.value().find("qps"), std::string::npos);
  EXPECT_NE(stats.value().find("latency_p99_us_le"), std::string::npos);

  // The scan-work counters are part of the snapshot from the start, and
  // after a query has run the streamed count must be nonzero (the blocked
  // engine always streams at least the band blocks).
  EXPECT_NE(stats.value().find("scan_points_streamed"), std::string::npos);
  EXPECT_NE(stats.value().find("scan_points_skipped"), std::string::npos);
  EXPECT_NE(stats.value().find("scan_skip_rate_pct"), std::string::npos);
  ASSERT_TRUE(client.ReverseKRanks(points.row(0), 4).ok());
  auto after = client.Stats();
  ASSERT_TRUE(after.ok());
  const std::string& text = after.value();
  const size_t pos = text.find("scan_points_streamed ");
  ASSERT_NE(pos, std::string::npos);
  EXPECT_NE(std::strtoull(
                text.c_str() + pos + sizeof("scan_points_streamed ") - 1,
                nullptr, 10),
            0u);

  // The sharded server appends one `shardN.<key> <value>` row set per
  // shard; after a query both shards must report it applied.
  for (const char* key :
       {"shard0.applied_seq", "shard0.generation", "shard0.queue_depth",
        "shard0.live_weights", "shard0.queries", "shard0.qps_share_pct",
        "shard0.latency_p99_us_le", "shard1.queries"}) {
    EXPECT_NE(text.find(key), std::string::npos) << key;
  }
  const size_t q0 = text.find("shard0.queries ");
  const size_t q1 = text.find("shard1.queries ");
  ASSERT_NE(q0, std::string::npos);
  ASSERT_NE(q1, std::string::npos);
  EXPECT_GE(std::strtoull(text.c_str() + q0 + sizeof("shard0.queries ") - 1,
                          nullptr, 10),
            1u);
  EXPECT_GE(std::strtoull(text.c_str() + q1 + sizeof("shard1.queries ") - 1,
                          nullptr, 10),
            1u);
}

TEST(QueryServerTest, SingleQueriesMatchLocalExecution) {
  const Dataset points = MakePoints(500, 4, 5);
  const Dataset weights = MakeWeights(120, 4, 6);
  auto index = BuildIndex(points, weights);
  QueryServer server(index.get(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  RemoteClient client = MustConnect(server);

  for (size_t row = 0; row < 20; ++row) {
    for (uint32_t k : {1u, 5u, 16u}) {
      auto remote_rtk = client.ReverseTopK(points.row(row), k);
      ASSERT_TRUE(remote_rtk.ok()) << remote_rtk.status().ToString();
      EXPECT_EQ(remote_rtk.value(), index->ReverseTopK(points.row(row), k));

      auto remote_rkr = client.ReverseKRanks(points.row(row), k);
      ASSERT_TRUE(remote_rkr.ok());
      EXPECT_EQ(remote_rkr.value(), index->ReverseKRanks(points.row(row), k));
    }
  }
}

TEST(QueryServerTest, WireBatchLargerThanMicroBatchIsNeverSplit) {
  const Dataset points = MakePoints(400, 3, 7);
  const Dataset weights = MakeWeights(90, 3, 8);
  auto index = BuildIndex(points, weights);
  ServerOptions options;
  options.max_batch = 16;  // far below the wire batch below
  QueryServer server(index.get(), options);
  ASSERT_TRUE(server.Start().ok());
  RemoteClient client = MustConnect(server);

  Dataset queries(points.dim());
  for (size_t i = 0; i < 200; ++i) queries.AppendUnchecked(points.row(i));
  auto remote = client.ReverseTopKBatch(queries, 8);
  ASSERT_TRUE(remote.ok());
  EXPECT_EQ(remote.value(), index->ReverseTopKBatch(queries, 8));

  auto remote_rkr = client.ReverseKRanksBatch(queries, 4);
  ASSERT_TRUE(remote_rkr.ok());
  EXPECT_EQ(remote_rkr.value(), index->ReverseKRanksBatch(queries, 4));
}

TEST(QueryServerTest, ConcurrentClientsCoalesceIntoMicroBatches) {
  const Dataset points = MakePoints(600, 4, 9);
  const Dataset weights = MakeWeights(150, 4, 10);
  auto index = BuildIndex(points, weights);
  ServerOptions options;
  options.batch_wait_us = 3000;  // wide window so peers always co-batch
  QueryServer server(index.get(), options);
  ASSERT_TRUE(server.Start().ok());

  constexpr size_t kThreads = 8;
  constexpr size_t kRounds = 25;
  constexpr uint32_t kK = 8;
  std::vector<ReverseTopKResult> expected(points.size());
  for (size_t i = 0; i < 64; ++i) {
    expected[i] = index->ReverseTopK(points.row(i), kK);
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      RemoteClient client = MustConnect(server);
      for (size_t round = 0; round < kRounds; ++round) {
        const size_t row = (t * kRounds + round) % 64;
        auto result = client.ReverseTopK(points.row(row), kK);
        if (!result.ok() || result.value() != expected[row]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  // With 8 blocked round-trip clients and a 3 ms fill window, the
  // scheduler must have merged requests: strictly fewer dispatches than
  // wire requests.
  RemoteClient client = MustConnect(server);
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  const std::string& text = stats.value();
  const auto value_of = [&](const std::string& key) {
    const size_t pos = text.find(key + " ");
    EXPECT_NE(pos, std::string::npos) << key;
    return std::strtoull(text.c_str() + pos + key.size() + 1, nullptr, 10);
  };
  const uint64_t requests = value_of("requests_completed");
  const uint64_t batches = value_of("batches_dispatched");
  EXPECT_EQ(requests, kThreads * kRounds);
  EXPECT_LT(batches, requests);
}

TEST(QueryServerTest, DefaultOptionsStillCoalesceWhileTheEngineIsBusy) {
  // No fill window: a batch holds only what queued while the previous one
  // executed. Every client asks distinct rows, so no answer comes from
  // the result cache and fewer dispatches than requests means coalescing.
  ASSERT_EQ(ServerOptions{}.batch_wait_us, 0u);
  const Dataset points = MakePoints(600, 4, 9);
  const Dataset weights = MakeWeights(150, 4, 10);
  auto index = BuildIndex(points, weights);
  QueryServer server(index.get(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  constexpr size_t kThreads = 8;
  constexpr size_t kRounds = 25;
  constexpr uint32_t kK = 8;
  std::vector<ReverseTopKResult> expected(kThreads * kRounds);
  for (size_t i = 0; i < expected.size(); ++i) {
    expected[i] = index->ReverseTopK(points.row(i), kK);
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      RemoteClient client = MustConnect(server);
      for (size_t round = 0; round < kRounds; ++round) {
        const size_t row = t * kRounds + round;
        auto result = client.ReverseTopK(points.row(row), kK);
        if (!result.ok() || result.value() != expected[row]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  const std::string text = server.metrics().Render();
  const auto value_of = [&](const std::string& key) {
    const size_t pos = text.find(key + " ");
    EXPECT_NE(pos, std::string::npos) << key;
    return std::strtoull(text.c_str() + pos + key.size() + 1, nullptr, 10);
  };
  const uint64_t requests = value_of("requests_completed");
  EXPECT_EQ(requests, kThreads * kRounds);
  EXPECT_EQ(value_of("cache_hits"), 0u);
  EXPECT_LT(value_of("batches_dispatched"), requests);
}

TEST(QueryServerTest, OverloadRejectsBeyondQueueLimitAndStaysBounded) {
  const Dataset points = MakePoints(300, 3, 11);
  const Dataset weights = MakeWeights(60, 3, 12);
  auto index = BuildIndex(points, weights);
  ServerOptions options;
  options.queue_limit = 4;
  // max_batch above queue_limit: the scheduler can never fill a batch
  // early, so the admitted rows sit the whole fill window and every
  // request arriving meanwhile is rejected — deterministically, however
  // staggered the client threads get on a loaded machine.
  options.max_batch = 8;
  options.batch_wait_us = 100000;  // hold the queue full for 100 ms
  // Every client sends the identical query; with the cache on, a single
  // early fill would serve the rest at admission and the queue would
  // never overflow. This test is about the queue bound, so cache off.
  options.enable_cache = false;
  QueryServer server(index.get(), options);
  ASSERT_TRUE(server.Start().ok());

  constexpr size_t kClients = 24;
  std::atomic<int> ok_count{0};
  std::atomic<int> overloaded{0};
  std::atomic<int> wrong{0};
  // All clients connect first, then fire together: connection setup is
  // slow (very slow under sanitizers), and staggered arrivals would let
  // the scheduler drain each max_batch as it fills without the queue
  // ever reaching its bound.
  std::atomic<size_t> ready{0};
  const ReverseTopKResult expected = index->ReverseTopK(points.row(0), 4);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kClients; ++t) {
    threads.emplace_back([&] {
      RemoteClient client = MustConnect(server);
      ready.fetch_add(1);
      while (ready.load() < kClients) std::this_thread::yield();
      auto result = client.ReverseTopK(points.row(0), 4);
      if (result.ok()) {
        ok_count.fetch_add(1);
        if (result.value() != expected) wrong.fetch_add(1);
      } else if (client.last_net_status() == NetStatus::kOverloaded) {
        overloaded.fetch_add(1);
      } else {
        wrong.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GT(overloaded.load(), 0);  // admission control actually rejected
  EXPECT_GT(ok_count.load(), 0);    // and admitted work still completed
  EXPECT_EQ(ok_count.load() + overloaded.load(),
            static_cast<int>(kClients));
  EXPECT_EQ(server.metrics().Render().find("rejected_overload 0"),
            std::string::npos);
}

TEST(QueryServerTest, DeadlineExpiresWhileQueuedBehindTheFillWindow) {
  const Dataset points = MakePoints(200, 3, 13);
  const Dataset weights = MakeWeights(40, 3, 14);
  auto index = BuildIndex(points, weights);
  ServerOptions options;
  options.batch_wait_us = 50000;  // 50 ms fill window
  QueryServer server(index.get(), options);
  ASSERT_TRUE(server.Start().ok());

  RemoteClient client = MustConnect(server);
  client.set_deadline_us(1);  // expires long before the window closes
  auto result = client.ReverseTopK(points.row(0), 4);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(client.last_net_status(), NetStatus::kDeadlineExceeded);

  // The connection stays usable after a deadline rejection.
  client.set_deadline_us(0);
  auto retry = client.ReverseTopK(points.row(0), 4);
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry.value(), index->ReverseTopK(points.row(0), 4));
}

TEST(QueryServerTest, MalformedFramesAreRejectedAndServerSurvives) {
  const Dataset points = MakePoints(200, 3, 15);
  const Dataset weights = MakeWeights(40, 3, 16);
  auto index = BuildIndex(points, weights);
  QueryServer server(index.get(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  const auto frame = [](const std::string& body) {
    const uint32_t len = static_cast<uint32_t>(body.size());
    std::string bytes(reinterpret_cast<const char*>(&len), sizeof(len));
    return bytes + body;
  };
  const std::string magic(kNetMagic, sizeof(kNetMagic));

  {
    // Unknown verb byte.
    RawConnection raw(server.port());
    ASSERT_TRUE(raw.connected());
    raw.SendRaw(magic + frame(std::string(16, '\xff')));
    NetResponse response;
    ASSERT_TRUE(raw.ReadResponse(&response));
    EXPECT_EQ(response.status, NetStatus::kMalformed);
    EXPECT_FALSE(raw.ReadResponse(&response));  // connection closed after
  }
  {
    // Truncated header: fewer bytes than the fixed request prefix.
    RawConnection raw(server.port());
    ASSERT_TRUE(raw.connected());
    raw.SendRaw(magic + frame(std::string(3, '\x01')));
    NetResponse response;
    ASSERT_TRUE(raw.ReadResponse(&response));
    EXPECT_EQ(response.status, NetStatus::kMalformed);
  }
  {
    // Forged count: a reverse top-k whose num_queries*dim implies far
    // more payload than the frame carries.
    NetRequest req;
    req.verb = NetVerb::kReverseTopKBatch;
    req.k = 4;
    req.num_queries = 1u << 30;
    req.dim = 3;
    std::string body = EncodeRequestBody(req);  // encodes zero doubles
    RawConnection raw(server.port());
    ASSERT_TRUE(raw.connected());
    raw.SendRaw(magic + frame(body));
    NetResponse response;
    ASSERT_TRUE(raw.ReadResponse(&response));
    EXPECT_EQ(response.status, NetStatus::kMalformed);
  }
  {
    // Trailing garbage after a well-formed request body.
    NetRequest req;
    req.verb = NetVerb::kPing;
    RawConnection raw(server.port());
    ASSERT_TRUE(raw.connected());
    raw.SendRaw(magic + frame(EncodeRequestBody(req) + "JUNK"));
    NetResponse response;
    ASSERT_TRUE(raw.ReadResponse(&response));
    EXPECT_EQ(response.status, NetStatus::kMalformed);
  }
  {
    // Hostile length prefix beyond the frame cap.
    RawConnection raw(server.port());
    ASSERT_TRUE(raw.connected());
    const uint32_t huge = kMaxFrameBytes + 1;
    std::string bytes(reinterpret_cast<const char*>(&huge), sizeof(huge));
    raw.SendRaw(magic + bytes);
    NetResponse response;
    ASSERT_TRUE(raw.ReadResponse(&response));
    EXPECT_EQ(response.status, NetStatus::kMalformed);
  }
  {
    // Bad protocol magic: dropped without a reply.
    RawConnection raw(server.port());
    ASSERT_TRUE(raw.connected());
    raw.SendRaw("NOTGIRNE");
    NetResponse response;
    EXPECT_FALSE(raw.ReadResponse(&response));
  }
  {
    // A frame the peer abandons mid-body must not wedge the server.
    RawConnection raw(server.port());
    ASSERT_TRUE(raw.connected());
    const uint32_t len = 64;
    std::string bytes(reinterpret_cast<const char*>(&len), sizeof(len));
    raw.SendRaw(magic + bytes + "only-ten-b");
  }

  // After every attack the server still answers a well-formed client.
  RemoteClient client = MustConnect(server);
  auto result = client.ReverseTopK(points.row(0), 4);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), index->ReverseTopK(points.row(0), 4));
  const std::string stats = server.metrics().Render();
  EXPECT_EQ(stats.find("malformed_frames 0"), std::string::npos);
}

TEST(QueryServerTest, SemanticallyInvalidRequestsGetInvalidArgument) {
  const Dataset points = MakePoints(200, 3, 17);
  const Dataset weights = MakeWeights(40, 3, 18);
  auto index = BuildIndex(points, weights);
  QueryServer server(index.get(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  RemoteClient client = MustConnect(server);

  const std::vector<double> wrong_dim = {1.0, 2.0};
  auto result = client.ReverseTopK(ConstRow(wrong_dim.data(), 2), 4);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(client.last_net_status(), NetStatus::kInvalidArgument);

  const std::vector<double> q = {1.0, 2.0, 3.0};
  result = client.ReverseTopK(ConstRow(q.data(), 3), 0);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(client.last_net_status(), NetStatus::kInvalidArgument);

  // Inserting a weight that is not a distribution is the index's call.
  EXPECT_FALSE(client.InsertWeight(ConstRow(q.data(), 3)).ok());
  EXPECT_EQ(client.last_net_status(), NetStatus::kInvalidArgument);

  // The connection survives semantic rejections.
  EXPECT_TRUE(client.Ping().ok());
}

TEST(QueryServerTest, GracefulShutdownAnswersAdmittedRequests) {
  const Dataset points = MakePoints(300, 3, 19);
  const Dataset weights = MakeWeights(60, 3, 20);
  auto index = BuildIndex(points, weights);
  ServerOptions options;
  options.batch_wait_us = 30000;  // requests sit queued when drain starts
  QueryServer server(index.get(), options);
  ASSERT_TRUE(server.Start().ok());

  const ReverseTopKResult expected = index->ReverseTopK(points.row(1), 4);
  std::atomic<int> answered{0};
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      RemoteClient client = MustConnect(server);
      auto result = client.ReverseTopK(points.row(1), 4);
      if (result.ok()) {
        answered.fetch_add(1);
        if (result.value() != expected) wrong.fetch_add(1);
      }
    });
  }
  // Wait (via live STATS, served inline off the queue) until all four
  // requests are past admission — either held by the fill window or
  // already answered — so Shutdown can never race a client thread that
  // has not reached the server yet.
  RemoteClient monitor = MustConnect(server);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    auto stats = monitor.Stats();
    ASSERT_TRUE(stats.ok());
    const std::string& text = stats.value();
    const auto value_of = [&](const std::string& key) {
      const size_t pos = text.find(key + " ");
      return pos == std::string::npos
                 ? 0ull
                 : std::strtoull(text.c_str() + pos + key.size() + 1, nullptr,
                                 10);
    };
    if (value_of("queue_depth") + value_of("requests_completed") >= 4) break;
    std::this_thread::yield();
  }
  server.Shutdown();  // every request is now admitted; drain answers the rest
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(answered.load(), 4);  // drain answered every admitted request
  EXPECT_FALSE(RemoteClient::Connect("127.0.0.1", server.port()).ok());
}

TEST(QueryServerTest, ChurnVersusQueriesReplaysToBitIdenticalAnswers) {
  const size_t kDim = 4;
  const Dataset points = MakePoints(300, kDim, 21);
  const Dataset weights = MakeWeights(80, kDim, 22);
  auto index = BuildIndex(points, weights, ScanMode::kBlocked, /*shards=*/2);
  ServerOptions options;
  options.batch_wait_us = 500;
  QueryServer server(index.get(), options);
  ASSERT_TRUE(server.Start().ok());

  // Per query thread, then the mutator: each op with the index version
  // its response was stamped with (mutation o creates version o+1).
  std::vector<RecordedOp> history[3];

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> query_threads;
  for (int t = 0; t < 2; ++t) {
    query_threads.emplace_back([&, t] {
      RemoteClient client = MustConnect(server);
      RemoteTarget target(client);
      std::mt19937_64 rng(1000 + t);
      while (!stop.load()) {
        RecordedOp obs;
        const size_t row = rng() % points.size();
        obs.op = QueryOp(t == 1 ? OpKind::kRkr : OpKind::kRtk,
                         points.row(row), 1 + rng() % 8);
        obs.result = target.Apply(obs.op);
        if (!obs.result.status.ok()) {
          failures.fetch_add(1);
          continue;
        }
        obs.version = client.last_index_version();
        history[t].push_back(std::move(obs));
      }
    });
  }

  // One mutating client: inserts and deletes racing the query batches.
  {
    RemoteClient client = MustConnect(server);
    RemoteTarget target(client);
    OpStream stream(77, {.dim = kDim,
                         .mix = {.insert_point = 50, .delete_point = 50},
                         .live_points = points.size(),
                         .live_weights = weights.size(),
                         .min_live_points = 149});
    for (int op = 0; op < 40; ++op) {
      RecordedOp m;
      m.op = stream.Next();
      m.result = target.Apply(m.op);
      ASSERT_TRUE(m.result.status.ok()) << m.result.status.ToString();
      m.version = client.last_index_version();
      ASSERT_EQ(m.version, static_cast<uint64_t>(op + 1));
      history[2].push_back(std::move(m));
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  stop.store(true);
  for (std::thread& t : query_threads) t.join();
  server.Shutdown();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_FALSE(history[0].empty() && history[1].empty());

  // Serial replay: a fresh index stepped through the mutation log; every
  // observation re-executed at its stamped version must be bit-identical.
  // Replaying into a single DynamicGirIndex doubles as a sharded-vs-single
  // merge oracle: the server ran the sharded router.
  DynamicIndexOptions replay_options;
  replay_options.gir.scan_mode = ScanMode::kBlocked;
  auto replay = DynamicGirIndex::Build(points, weights, replay_options);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  std::vector<RecordedOp> all;
  for (const auto& per_thread : history) {
    all.insert(all.end(), per_thread.begin(), per_thread.end());
  }
  const Status s = CheckHistory(replay.value(), std::move(all), 77);
  EXPECT_TRUE(s.ok()) << s.ToString();
}

// ---- Result cache (server/result_cache.h wired into the server) ------------

TEST(QueryServerTest, CacheServesRepeatsAndSurvivesIrrelevantMutations) {
  const size_t kDim = 3;
  const Dataset points = MakePoints(250, kDim, 23);
  const Dataset weights = MakeWeights(60, kDim, 24);
  // τ mode: the live-τ heads are what turn point mutations into useful
  // survival bands; under the pure scan modes every band is 1 and the
  // cache can only refill, never extend.
  auto index = BuildIndex(points, weights, ScanMode::kTauIndex);
  QueryServer server(index.get(), ServerOptions{});  // cache on by default
  ASSERT_TRUE(server.Start().ok());
  RemoteClient client = MustConnect(server);

  const ConstRow q = points.row(0);
  auto first = client.ReverseTopK(q, 4);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(client.last_cache_hit());
  auto second = client.ReverseTopK(q, 4);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(client.last_cache_hit());
  EXPECT_EQ(second.value(), first.value());

  // A far-away point lands at the bottom of every weight's score list
  // (its probe band is the worst live position), so the cached top-4
  // answer provably survives: still a hit, still the same answer.
  std::vector<double> far(kDim, 1e7);
  ASSERT_TRUE(client.InsertPoint(ConstRow(far.data(), kDim)).ok());
  auto after_far = client.ReverseTopK(q, 4);
  ASSERT_TRUE(after_far.ok());
  EXPECT_TRUE(client.last_cache_hit());
  EXPECT_EQ(after_far.value(), index->ReverseTopK(q, 4));

  // An all-zero point scores strictly below everything (band 1), so the
  // pass must drop the entry; the re-executed answer refills the cache.
  std::vector<double> zero(kDim, 0.0);
  ASSERT_TRUE(client.InsertPoint(ConstRow(zero.data(), kDim)).ok());
  auto after_zero = client.ReverseTopK(q, 4);
  ASSERT_TRUE(after_zero.ok());
  EXPECT_FALSE(client.last_cache_hit());
  EXPECT_EQ(after_zero.value(), index->ReverseTopK(q, 4));
  auto refill = client.ReverseTopK(q, 4);
  ASSERT_TRUE(refill.ok());
  EXPECT_TRUE(client.last_cache_hit());

  // Compaction rebuilds bit-identically: cached entries stay valid.
  ASSERT_TRUE(client.Compact().ok());
  auto after_compact = client.ReverseTopK(q, 4);
  ASSERT_TRUE(after_compact.ok());
  EXPECT_TRUE(client.last_cache_hit());
  EXPECT_EQ(after_compact.value(), index->ReverseTopK(q, 4));

  const std::string stats = server.metrics().Render();
  EXPECT_EQ(stats.find("cache_hits 0\n"), std::string::npos);
  EXPECT_EQ(stats.find("cache_extensions 0\n"), std::string::npos);
  EXPECT_EQ(stats.find("cache_invalidations 0\n"), std::string::npos);
}

TEST(QueryServerTest, MeanBatchQueriesCountsOnlyDispatchedRows) {
  const Dataset points = MakePoints(200, 3, 27);
  const Dataset weights = MakeWeights(40, 3, 28);
  auto index = BuildIndex(points, weights);
  ServerOptions options;  // cache on by default
  options.max_batch = 4;
  QueryServer server(index.get(), options);
  ASSERT_TRUE(server.Start().ok());
  RemoteClient client = MustConnect(server);
  // Two misses, then cache hits: hits complete queries without a batch,
  // so they must not inflate the mean batch size past max_batch.
  for (size_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(client.ReverseTopK(points.row(i % 2), 4).ok());
  }
  const std::string stats = server.metrics().Render();
  EXPECT_EQ(stats.find("cache_hits 0\n"), std::string::npos);
  const size_t pos = stats.find("\nmean_batch_queries ");
  ASSERT_NE(pos, std::string::npos);
  const uint64_t mean = std::strtoull(
      stats.c_str() + pos + sizeof("\nmean_batch_queries ") - 1, nullptr, 10);
  EXPECT_GE(mean, 1u);
  EXPECT_LE(mean, options.max_batch);
}

TEST(QueryServerTest, CacheDisabledNeverSetsTheHitFlag) {
  const Dataset points = MakePoints(200, 3, 25);
  const Dataset weights = MakeWeights(40, 3, 26);
  auto index = BuildIndex(points, weights);
  ServerOptions options;
  options.enable_cache = false;
  QueryServer server(index.get(), options);
  ASSERT_TRUE(server.Start().ok());
  RemoteClient client = MustConnect(server);
  for (int i = 0; i < 3; ++i) {
    auto result = client.ReverseTopK(points.row(0), 4);
    ASSERT_TRUE(result.ok());
    EXPECT_FALSE(client.last_cache_hit());
  }
  EXPECT_NE(server.metrics().Render().find("cache_hits 0\n"),
            std::string::npos);
}

// The churn-interleaved cache property test: >= 1000 interleaved
// mutations/queries against one server, every response shadow-checked
// against a DynamicGirIndex fed the identical mutation stream (the
// sharded router is documented bit-identical to it). Deterministic and
// single-threaded — the server still runs its full concurrent pipeline
// (reader, scheduler, shard workers, cache passes), so TSan sees every
// hand-off. Runs the same script against a 1-shard and a 2-shard server.
TEST(QueryServerTest, CachedAnswersStayBitIdenticalUnderChurn) {
  const size_t kDim = 4;
  const Dataset points = MakePoints(240, kDim, 27);
  const Dataset weights = MakeWeights(60, kDim, 28);

  for (const size_t shards : {size_t{1}, size_t{2}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    // τ mode on the serving side so invalidation bands / head certificates
    // are live (extensions happen); the shadow runs the blocked scan so the
    // equality check also crosses engines.
    auto index = BuildIndex(points, weights, ScanMode::kTauIndex, shards);
    ServerOptions options;
    options.batch_wait_us = 0;  // single client: dispatch immediately
    QueryServer server(index.get(), options);
    ASSERT_TRUE(server.Start().ok());
    RemoteClient client = MustConnect(server);

    DynamicIndexOptions shadow_options;
    shadow_options.gir.scan_mode = ScanMode::kBlocked;
    auto shadow_built =
        DynamicGirIndex::Build(points, weights, shadow_options);
    ASSERT_TRUE(shadow_built.ok()) << shadow_built.status().ToString();
    DynamicGirIndex shadow = std::move(shadow_built).value();

    OpStream stream(500 + shards,
                    {.dim = kDim,
                     .mix = {.insert_point = 3, .delete_point = 2,
                             .insert_weight = 2, .delete_weight = 1,
                             .compact = 1, .rtk = 46, .rkr = 45},
                     .live_points = points.size(),
                     .live_weights = weights.size(),
                     .min_live_points = 60,
                     .min_live_weights = 20});
    RemoteTarget target(client);
    OracleChecker checker(shadow, target, stream.seed());
    std::mt19937_64 rng(600 + shards);
    uint64_t version = 0;
    size_t hits = 0;
    constexpr int kOps = 1100;
    for (int op = 0; op < kOps; ++op) {
      Op next = stream.Next();
      if (IsQuery(next.kind)) {
        // Queries come from a small pool so repeats hit the cache.
        const ConstRow q = points.row(rng() % 24);
        next.row.assign(q.begin(), q.end());
      } else if (next.kind == OpKind::kInsertPoint && rng() % 3 == 0) {
        for (double& v : next.row) v += 1e6;  // one in three far away
      }
      const Status s = checker.Step(next);
      ASSERT_TRUE(s.ok()) << s.ToString()
                          << (client.last_cache_hit() ? " (cache hit)" : "");
      if (!IsQuery(next.kind)) {
        ++version;
        continue;
      }
      if (client.last_cache_hit()) ++hits;
      // A cache hit is stamped with the snapshot it was served at,
      // which in this single-client lockstep is the mutation count.
      ASSERT_EQ(client.last_index_version(), version) << "op " << op;
    }
    // The cache must actually have carried answers across mutations —
    // otherwise this test degenerates to the plain churn replay.
    EXPECT_GT(hits, 50u);
    server.Shutdown();
  }
}

// ---- Per-tenant QoS --------------------------------------------------------

TEST(QueryServerTest, QosSplitsSaturatedThroughputByTenantWeight) {
  const Dataset points = MakePoints(3000, 4, 31);
  const Dataset weights = MakeWeights(400, 4, 32);
  auto index = BuildIndex(points, weights);
  ServerOptions options;
  options.enable_cache = false;  // measure scheduling, not the cache
  options.max_batch = 8;
  options.batch_wait_us = 200;
  options.tenants.push_back(TenantOptions{/*id=*/1, /*weight=*/3});
  options.tenants.push_back(TenantOptions{/*id=*/2, /*weight=*/1});
  QueryServer server(index.get(), options);
  ASSERT_TRUE(server.Start().ok());

  // Closed-loop saturation: enough clients per tenant that both classes
  // stay backlogged, so the deficit round robin (not arrival order)
  // decides who is served.
  constexpr size_t kClientsPerTenant = 12;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> served[2] = {{0}, {0}};
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int tenant = 0; tenant < 2; ++tenant) {
    for (size_t c = 0; c < kClientsPerTenant; ++c) {
      threads.emplace_back([&, tenant, c] {
        RemoteClient client = MustConnect(server);
        client.set_tenant(static_cast<uint16_t>(tenant + 1));
        std::mt19937_64 rng(9000 + tenant * 100 + c);
        while (!stop.load()) {
          const size_t row = rng() % points.size();
          if (client.ReverseKRanks(points.row(row), 8).ok()) {
            served[tenant].fetch_add(1);
          } else {
            errors.fetch_add(1);
          }
        }
      });
    }
  }
  // Measure steady state only, and by request count rather than by wall
  // clock: the connect/ramp-up phase serves whoever arrives first (the
  // queues are still single-class), and on a loaded machine a fixed time
  // window can end up dominated by that phase. Burn a warmup quota, then
  // snapshot and measure a fixed quota of further requests.
  const auto total = [&] { return served[0].load() + served[1].load(); };
  const auto hard_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (total() < 150 && std::chrono::steady_clock::now() < hard_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const uint64_t warm_heavy = served[0].load();
  const uint64_t warm_light = served[1].load();
  const uint64_t warm_total = warm_heavy + warm_light;
  while (total() < warm_total + 600 &&
         std::chrono::steady_clock::now() < hard_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (std::thread& t : threads) t.join();
  server.Shutdown();

  EXPECT_EQ(errors.load(), 0);
  const double heavy = static_cast<double>(served[0].load() - warm_heavy);
  const double light = static_cast<double>(served[1].load() - warm_light);
  ASSERT_GT(light, 0.0);
  const double ratio = heavy / light;
  // Weights 3:1 under saturation; the acceptance band is +-20%. Under
  // TSan the ~10x slowdown staggers arrivals enough that the queues are
  // frequently single-class (where the deficit ledger deliberately
  // stands aside), pulling the ratio toward arrival order — there the
  // test only requires the weighting to be clearly visible.
#if GIR_TSAN_BUILD
  EXPECT_GE(ratio, 1.3) << "heavy " << heavy << " light " << light;
#else
  EXPECT_GE(ratio, 2.4) << "heavy " << heavy << " light " << light;
  EXPECT_LE(ratio, 3.6) << "heavy " << heavy << " light " << light;
#endif

  // Both tenants are accounted under their registered STATS slots.
  const std::string stats = server.metrics().Render();
  EXPECT_NE(stats.find("tenant1.served "), std::string::npos);
  EXPECT_NE(stats.find("tenant2.served "), std::string::npos);
  EXPECT_EQ(stats.find("tenant1.served 0\n"), std::string::npos);
  EXPECT_EQ(stats.find("tenant2.served 0\n"), std::string::npos);
}

TEST(QueryServerTest, QosRateLimitedTenantGetsExplicitOverloaded) {
  const Dataset points = MakePoints(200, 3, 33);
  const Dataset weights = MakeWeights(40, 3, 34);
  auto index = BuildIndex(points, weights);
  ServerOptions options;
  options.enable_cache = false;  // hits would bypass the token charge
  TenantOptions limited;
  limited.id = 7;
  limited.rate_qps = 0.001;  // one token every ~17 minutes
  limited.burst = 2;         // two queries pass, the third is throttled
  options.tenants.push_back(limited);
  QueryServer server(index.get(), options);
  ASSERT_TRUE(server.Start().ok());

  RemoteClient client = MustConnect(server);
  client.set_tenant(7);
  EXPECT_TRUE(client.ReverseTopK(points.row(0), 4).ok());
  EXPECT_TRUE(client.ReverseTopK(points.row(1), 4).ok());
  auto throttled = client.ReverseTopK(points.row(2), 4);
  EXPECT_FALSE(throttled.ok());
  // The throttle is an explicit wire status with a distinguishable
  // message — never a silent drop or a generic failure.
  EXPECT_EQ(client.last_net_status(), NetStatus::kOverloaded);
  EXPECT_NE(throttled.status().ToString().find("rate limited"),
            std::string::npos);

  // The connection survives, other tenants are unaffected, and the
  // rejection is visible in STATS.
  RemoteClient other = MustConnect(server);
  EXPECT_TRUE(other.ReverseTopK(points.row(2), 4).ok());
  EXPECT_TRUE(client.Ping().ok());
  const std::string stats = server.metrics().Render();
  EXPECT_NE(stats.find("tenant7.rejected_rate_limited "), std::string::npos);
  EXPECT_EQ(stats.find("tenant7.rejected_rate_limited 0\n"),
            std::string::npos);
}

TEST(QueryServerTest, TenantDeadlineClassAppliesWhenRequestCarriesNone) {
  const Dataset points = MakePoints(200, 3, 35);
  const Dataset weights = MakeWeights(40, 3, 36);
  auto index = BuildIndex(points, weights);
  ServerOptions options;
  options.enable_cache = false;
  options.batch_wait_us = 50000;  // 50 ms fill window
  TenantOptions strict;
  strict.id = 3;
  strict.default_deadline_us = 1;  // expires before the window closes
  options.tenants.push_back(strict);
  QueryServer server(index.get(), options);
  ASSERT_TRUE(server.Start().ok());

  RemoteClient client = MustConnect(server);
  client.set_tenant(3);
  auto result = client.ReverseTopK(points.row(0), 4);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(client.last_net_status(), NetStatus::kDeadlineExceeded);

  // An explicit request deadline overrides the tenant default.
  client.set_deadline_us(10000000);
  auto retry = client.ReverseTopK(points.row(0), 4);
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry.value(), index->ReverseTopK(points.row(0), 4));
}

/// This process's virtual size in KiB (VmSize in /proc/self/status).
uint64_t VmSizeKib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmSize:", 0) == 0) {
      return std::strtoull(line.c_str() + sizeof("VmSize:") - 1, nullptr, 10);
    }
  }
  return 0;
}

TEST(QueryServerTest, ShortConnectionsDoNotAccumulateReaderStacks) {
  // A reader thread that exits but is never joined keeps its whole stack
  // (8 MiB by default) mapped, so without reaping 200 short connections
  // grow the address space by ~1.7 GB. The front end joins finished
  // readers on each accept.
  const Dataset points = MakePoints(100, 3, 37);
  const Dataset weights = MakeWeights(20, 3, 38);
  auto index = BuildIndex(points, weights);
  QueryServer server(index.get(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  {
    RemoteClient warm = MustConnect(server);
    ASSERT_TRUE(warm.Ping().ok());
  }

  const uint64_t before = VmSizeKib();
  ASSERT_GT(before, 0u);
  for (int i = 0; i < 200; ++i) {
    RemoteClient client = MustConnect(server);
    ASSERT_TRUE(client.Ping().ok()) << "connection " << i;
  }
  const uint64_t after = VmSizeKib();
  const uint64_t growth_kib = after > before ? after - before : 0;
  EXPECT_LT(growth_kib, uint64_t{256} << 10)
      << "VmSize " << before << " -> " << after << " KiB";
  RemoteClient client = MustConnect(server);
  EXPECT_TRUE(client.Ping().ok());
}

// ---- RemoteClient failure paths against a hostile peer ---------------------

/// Minimal loopback peer that accepts one connection, consumes the
/// client's magic + first request frame, answers with arbitrary forged
/// bytes and closes.
class ForgingServer {
 public:
  explicit ForgingServer(std::string reply, bool hold_open = false)
      : reply_(std::move(reply)), hold_open_(hold_open) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    EXPECT_EQ(::listen(listen_fd_, 1), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(listen_fd_,
                            reinterpret_cast<sockaddr*>(&addr), &len),
              0);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      // Drain the magic and the request frame (length prefix + body).
      char magic[8];
      (void)::recv(fd, magic, sizeof(magic), MSG_WAITALL);
      uint32_t frame_len = 0;
      if (::recv(fd, &frame_len, sizeof(frame_len), MSG_WAITALL) ==
          static_cast<ssize_t>(sizeof(frame_len))) {
        std::vector<char> body(frame_len);
        (void)::recv(fd, body.data(), body.size(), MSG_WAITALL);
      }
      if (!reply_.empty()) {
        (void)::send(fd, reply_.data(), reply_.size(), MSG_NOSIGNAL);
      }
      // hold_open: stay silent without hanging up, so the only way the
      // client unblocks is its own SO_RCVTIMEO deadline.
      while (hold_open_.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      ::close(fd);  // hang up — mid-frame if the reply was partial
    });
  }

  ~ForgingServer() {
    hold_open_.store(false);
    if (thread_.joinable()) thread_.join();
    if (listen_fd_ >= 0) ::close(listen_fd_);
  }

  uint16_t port() const { return port_; }

 private:
  std::string reply_;
  std::atomic<bool> hold_open_{false};
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
};

/// One complete response frame: length prefix + the 24-byte response
/// header (verb, status, flags, pad, request id, index version) +
/// `payload`.
std::string ForgedFrame(uint8_t verb, uint8_t status,
                        const std::string& payload) {
  std::string body;
  body.push_back(static_cast<char>(verb));
  body.push_back(static_cast<char>(status));
  const uint16_t flags = 0;
  const uint32_t pad = 0;
  const uint64_t request_id = 1;  // RemoteClient's first id
  const uint64_t version = 0;
  body.append(reinterpret_cast<const char*>(&flags), sizeof(flags));
  body.append(reinterpret_cast<const char*>(&pad), sizeof(pad));
  body.append(reinterpret_cast<const char*>(&request_id),
              sizeof(request_id));
  body.append(reinterpret_cast<const char*>(&version), sizeof(version));
  body += payload;
  const uint32_t len = static_cast<uint32_t>(body.size());
  std::string frame(reinterpret_cast<const char*>(&len), sizeof(len));
  frame += body;
  return frame;
}

TEST(RemoteClientTest, ServerClosingMidFrameIsACleanError) {
  // Length prefix promises 64 bytes, only 10 arrive before the hangup:
  // the client must fail with a decode error — no hang, no garbage.
  const uint32_t len = 64;
  std::string reply(reinterpret_cast<const char*>(&len), sizeof(len));
  reply += "ten-bytes.";
  ForgingServer peer(reply);
  auto client = RemoteClient::Connect("127.0.0.1", peer.port());
  ASSERT_TRUE(client.ok());
  const Status s = client.value().Ping();
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("connection closed"), std::string::npos);
}

TEST(RemoteClientTest, ServerClosingBeforeAnyResponseIsACleanError) {
  ForgingServer peer("");  // reads the request, answers nothing
  auto client = RemoteClient::Connect("127.0.0.1", peer.port());
  ASSERT_TRUE(client.ok());
  EXPECT_FALSE(client.value().Ping().ok());
}

TEST(RemoteClientTest, TruncatedResponseBodyIsACleanError) {
  // A complete frame whose body is shorter than the response header:
  // DecodeResponseBody must reject it, not read past the end.
  const uint32_t len = 5;
  std::string reply(reinterpret_cast<const char*>(&len), sizeof(len));
  reply += "stub!";
  ForgingServer peer(reply);
  auto client = RemoteClient::Connect("127.0.0.1", peer.port());
  ASSERT_TRUE(client.ok());
  const Status s = client.value().Ping();
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("undecodable"), std::string::npos);
}

TEST(RemoteClientTest, OversizedLengthPrefixIsACleanError) {
  // The forged prefix promises a frame beyond kMaxFrameBytes: the client
  // must refuse before allocating or reading a single payload byte.
  const uint32_t len = kMaxFrameBytes + 1;
  std::string reply(reinterpret_cast<const char*>(&len), sizeof(len));
  reply += "x";
  ForgingServer peer(reply);
  auto client = RemoteClient::Connect("127.0.0.1", peer.port());
  ASSERT_TRUE(client.ok());
  const Status s = client.value().Ping();
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("frame length exceeds the limit"),
            std::string::npos);
}

TEST(RemoteClientTest, ForgedStatusByteIsACleanError) {
  // A status byte past the last defined NetStatus fails decoding — it
  // must not be cast through and misreported as some known status.
  ForgingServer peer(
      ForgedFrame(static_cast<uint8_t>(NetVerb::kPing), 0xEE, ""));
  auto client = RemoteClient::Connect("127.0.0.1", peer.port());
  ASSERT_TRUE(client.ok());
  const Status s = client.value().Ping();
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("undecodable"), std::string::npos);
}

TEST(RemoteClientTest, ForgedDegradedCoverageIsACleanError) {
  // kDegraded with coverage bits set beyond the claimed shard count:
  // the bitmap validation must reject the frame outright.
  std::string payload;
  const uint32_t shard_count = 2;
  const uint64_t coverage = 0xFF;  // bits 2..7 exceed shard_count
  payload.append(reinterpret_cast<const char*>(&shard_count),
                 sizeof(shard_count));
  payload.append(reinterpret_cast<const char*>(&coverage),
                 sizeof(coverage));
  ForgingServer peer(ForgedFrame(
      static_cast<uint8_t>(NetVerb::kPing),
      static_cast<uint8_t>(NetStatus::kDegraded), payload));
  auto client = RemoteClient::Connect("127.0.0.1", peer.port());
  ASSERT_TRUE(client.ok());
  const Status s = client.value().Ping();
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("undecodable"), std::string::npos);
}

TEST(RemoteClientTest, SilentServerHitsTheIoDeadlineNotAHang) {
  // The peer accepts, reads the request and then says nothing, without
  // closing. Untimed, this blocks forever; with io_ms the recv surfaces
  // a typed timeout in bounded time.
  ForgingServer peer("", /*hold_open=*/true);
  RemoteClientOptions options;
  options.connect_ms = 2000;
  options.io_ms = 200;
  auto client = RemoteClient::Connect("127.0.0.1", peer.port(), options);
  ASSERT_TRUE(client.ok());
  const auto start = std::chrono::steady_clock::now();
  const Status s = client.value().Ping();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIOError) << s.ToString();
  EXPECT_NE(s.ToString().find("timed out"), std::string::npos);
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

// ---- gir_serve helpers -----------------------------------------------------

TEST(PortFileTest, WritesAtomicallyViaRename) {
  char dir_template[] = "/tmp/gir_portfile_XXXXXX";
  ASSERT_NE(::mkdtemp(dir_template), nullptr);
  const std::string dir = dir_template;
  const std::string path = dir + "/port.txt";

  ASSERT_TRUE(WritePortFileAtomic(path, 4242).ok());
  {
    std::ifstream in(path);
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    EXPECT_EQ(contents, "4242\n");
  }
  // No temp artifact may remain next to the published file.
  EXPECT_NE(::access((path + ".tmp").c_str(), F_OK), 0);

  // Overwriting an existing file goes through the same rename and
  // replaces the contents wholesale.
  ASSERT_TRUE(WritePortFileAtomic(path, 65535).ok());
  {
    std::ifstream in(path);
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    EXPECT_EQ(contents, "65535\n");
  }
  EXPECT_NE(::access((path + ".tmp").c_str(), F_OK), 0);

  // An unwritable destination is a reported error, not a crash.
  EXPECT_FALSE(
      WritePortFileAtomic("/nonexistent-dir/deep/port.txt", 1).ok());

  ::remove(path.c_str());
  ::rmdir(dir.c_str());
}

}  // namespace
}  // namespace gir
