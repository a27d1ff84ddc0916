// Multi-threaded readers-plus-one-writer stress test over
// DynamicGirIndex (ISSUE 5 satellite). The index's own contract is
// "queries are const and concurrently safe; mutations are not safe
// against queries" — the test drives it exactly the way the query server
// does: a shared_mutex with query threads on the shared side and one
// mutating thread on the exclusive side, plus a version counter bumped
// per mutation. Every observed answer is then checked bit-identical
// against a serial replay of the mutation log at the observed version.
//
// Under GIR_SANITIZE=thread this doubles as the TSan witness that the
// lock discipline (and the const query paths' internal sharing) is
// race-free.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <random>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "bench_util/op_stream.h"
#include "data/generators.h"
#include "data/weights.h"
#include "grid/dynamic_index.h"

namespace gir {
namespace {

class DynamicConcurrencyTest : public ::testing::TestWithParam<ScanMode> {};

TEST_P(DynamicConcurrencyTest, ReadersRaceOneWriterBitIdentically) {
  constexpr size_t kDim = 4;
  constexpr size_t kReaders = 3;
  constexpr int kMutations = 30;
  const Dataset points =
      GeneratePoints(PointDistribution::kUniform, 250, kDim, 31);
  const Dataset weights =
      GenerateWeights(WeightDistribution::kUniform, 60, kDim, 32);

  DynamicIndexOptions options;
  options.gir.scan_mode = GetParam();
  auto built = DynamicGirIndex::Build(points, weights, options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  DynamicGirIndex index = std::move(built).value();

  std::shared_mutex index_mu;
  std::atomic<uint64_t> version{0};
  std::atomic<bool> stop{false};
  // Per reader, then the writer: each op with the version it ran at.
  std::vector<RecordedOp> history[kReaders + 1];

  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::mt19937_64 rng(500 + r);
      while (!stop.load(std::memory_order_relaxed)) {
        RecordedOp obs;
        const size_t query_row = rng() % points.size();
        obs.op = QueryOp(r % 2 == 1 ? OpKind::kRkr : OpKind::kRtk,
                         points.row(query_row), 1 + rng() % 6);
        {
          // The server's discipline: shared lock around the const query,
          // version read under the same lock.
          std::shared_lock<std::shared_mutex> lock(index_mu);
          obs.version = version.load(std::memory_order_relaxed);
          obs.result = ApplyOp(index, obs.op);
        }
        history[r].push_back(std::move(obs));
        // Back off between queries: glibc's rwlock prefers readers, and
        // three spinning shared holders would starve the writer for
        // seconds at a time (the contention is the point of the test,
        // saturation is not).
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }

  {
    OpStream stream(99, {.dim = kDim,
                         .mix = {.insert_point = 50, .delete_point = 50},
                         .live_points = points.size(),
                         .live_weights = weights.size(),
                         .min_live_points = 119});
    for (int i = 0; i < kMutations; ++i) {
      RecordedOp m;
      m.op = stream.Next();
      {
        std::unique_lock<std::shared_mutex> lock(index_mu);
        m.result = ApplyOp(index, m.op);
        ASSERT_TRUE(m.result.status.ok()) << m.result.status.ToString();
        m.version = version.fetch_add(1, std::memory_order_relaxed) + 1;
      }
      history[kReaders].push_back(std::move(m));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();

  // Serial replay: rebuild, step through the log version by version, and
  // re-execute every observation at its stamped version.
  std::vector<RecordedOp> all;
  for (const auto& per_thread : history) {
    all.insert(all.end(), per_thread.begin(), per_thread.end());
  }
  EXPECT_GT(all.size(), static_cast<size_t>(kMutations));
  auto rebuilt = DynamicGirIndex::Build(points, weights, options);
  ASSERT_TRUE(rebuilt.ok());
  const Status s = CheckHistory(rebuilt.value(), std::move(all), 99);
  EXPECT_TRUE(s.ok()) << s.ToString();
}

INSTANTIATE_TEST_SUITE_P(BlockedAndTau, DynamicConcurrencyTest,
                         ::testing::Values(ScanMode::kBlocked,
                                           ScanMode::kTauIndex),
                         [](const auto& info) {
                           return info.param == ScanMode::kBlocked
                                      ? "Blocked"
                                      : "Tau";
                         });

}  // namespace
}  // namespace gir
