#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <vector>

#include "core/naive.h"
#include "core/rank.h"
#include "core/thread_pool.h"
#include "data/generators.h"
#include "data/weights.h"
#include "grid/adaptive_grid.h"
#include "grid/aggregate.h"
#include "grid/index_io.h"
#include "test_util.h"

namespace gir {
namespace {

using testing_util::MakeWorkload;
using testing_util::Workload;

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(0, 1000, 7, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(5, 5, 1, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, SingleThreadPoolWorks) {
  ThreadPool pool(1);
  std::atomic<size_t> sum{0};
  pool.ParallelFor(0, 100, 9, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) sum.fetch_add(i);
  });
  EXPECT_EQ(sum.load(), 4950u);
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> count{0};
    pool.ParallelFor(0, 50, 4,
                     [&](size_t begin, size_t end) {
                       count.fetch_add(static_cast<int>(end - begin));
                     });
    ASSERT_EQ(count.load(), 50);
  }
}

TEST(ThreadPoolTest, GrainLargerThanRange) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.ParallelFor(0, 10, 1000, [&](size_t begin, size_t end) {
    calls.fetch_add(1);
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 10u);
  });
  EXPECT_EQ(calls.load(), 1);
}

// ---------------------------------------------------------------- Parallel

class ParallelGirTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ParallelGirTest, MatchesSequentialResults) {
  const size_t threads = GetParam();
  Workload wl = MakeWorkload(800, 150, 6, 51);
  auto index = GirIndex::Build(wl.points, wl.weights).value();
  ThreadPool pool(threads);
  for (size_t qi : {size_t{0}, size_t{400}, size_t{799}}) {
    ConstRow q = wl.points.row(qi);
    const Dataset one = testing_util::OneRow(q);
    EXPECT_EQ(index.ReverseTopKBatch(one, 20, nullptr, &pool)[0],
              index.ReverseTopK(q, 20));
    EXPECT_EQ(index.ReverseKRanksBatch(one, 20, nullptr, &pool)[0],
              index.ReverseKRanks(q, 20));
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelGirTest,
                         ::testing::Values(1, 2, 4, 8));

TEST(ParallelGirTest2, EmptyResultWhenKDominatorsExist) {
  auto points = Dataset::FromRows(
                    {{1.0, 1.0}, {2.0, 2.0}, {3.0, 3.0}, {100.0, 100.0}})
                    .value();
  Dataset weights = testing_util::SmallWeights(50, 2, 52);
  auto index = GirIndex::Build(points, weights).value();
  ThreadPool pool(4);
  std::vector<double> q{50.0, 50.0};
  EXPECT_TRUE(
      index.ReverseTopKBatch(testing_util::OneRow(q), 3, nullptr, &pool)[0]
          .empty());
}

TEST(ParallelGirTest2, KZeroAndEmptyWeights) {
  Workload wl = MakeWorkload(50, 10, 3, 53);
  auto index = GirIndex::Build(wl.points, wl.weights).value();
  ThreadPool pool(2);
  EXPECT_TRUE(index
                  .ReverseKRanksBatch(testing_util::OneRow(wl.points.row(0)),
                                      0, nullptr, &pool)[0]
                  .empty());
}

TEST(ParallelGirTest2, StatsAreMerged) {
  Workload wl = MakeWorkload(500, 80, 5, 54);
  auto index = GirIndex::Build(wl.points, wl.weights).value();
  ThreadPool pool(4);
  QueryStats stats;
  index.ReverseKRanksBatch(testing_util::OneRow(wl.points.row(10)), 10,
                           &stats, &pool);
  EXPECT_GT(stats.points_visited, 0u);
  EXPECT_EQ(stats.weights_evaluated, wl.weights.size());
}

TEST(ParallelGirTest2, ManyQueriesStressDeterminism) {
  Workload wl = MakeWorkload(300, 200, 4, 55);
  auto index = GirIndex::Build(wl.points, wl.weights).value();
  ThreadPool pool(8);
  for (size_t qi = 0; qi < 20; ++qi) {
    ConstRow q = wl.points.row(qi * 15);
    ASSERT_EQ(
        index.ReverseKRanksBatch(testing_util::OneRow(q), 7, nullptr, &pool)[0],
        NaiveReverseKRanks(wl.points, wl.weights, q, 7))
        << "query " << qi;
  }
}

// ---------------------------------------------------------------- IndexIO

class IndexIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("gir_idx_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }
  std::filesystem::path dir_;
};

TEST_F(IndexIoTest, RoundTripPreservesResults) {
  Workload wl = MakeWorkload(400, 60, 5, 61);
  GirOptions options;
  options.partitions = 64;
  options.bound_mode = BoundMode::kUpperFirst;
  options.use_domin = false;
  auto index = GirIndex::Build(wl.points, wl.weights, options).value();
  ASSERT_TRUE(SaveGirIndex(Path("idx.bin"), index).ok());
  auto loaded = LoadGirIndex(Path("idx.bin"), wl.points, wl.weights,
                             /*verify_cells=*/true);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().options().partitions, 64u);
  EXPECT_EQ(loaded.value().options().bound_mode, BoundMode::kUpperFirst);
  EXPECT_FALSE(loaded.value().options().use_domin);
  ConstRow q = wl.points.row(123);
  EXPECT_EQ(loaded.value().ReverseTopK(q, 10), index.ReverseTopK(q, 10));
  EXPECT_EQ(loaded.value().ReverseKRanks(q, 10), index.ReverseKRanks(q, 10));
}

TEST_F(IndexIoTest, AdaptiveGridRoundTrips) {
  Dataset points = GenerateExponential(300, 4, 62);
  Dataset weights = GenerateWeightsUniform(40, 4, 63);
  auto index = BuildAdaptiveGir(points, weights).value();
  ASSERT_TRUE(SaveGirIndex(Path("adaptive.bin"), index).ok());
  auto loaded = LoadGirIndex(Path("adaptive.bin"), points, weights,
                             /*verify_cells=*/true);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(loaded.value().grid().point_partitioner().is_uniform());
  ConstRow q = points.row(7);
  EXPECT_EQ(loaded.value().ReverseKRanks(q, 5), index.ReverseKRanks(q, 5));
}

TEST_F(IndexIoTest, PackedIndexIsSmall) {
  // §3.2: the persisted index (6-bit cells at n = 64... 6 bits) is a small
  // fraction of the raw data it replaces.
  Workload wl = MakeWorkload(2000, 2000, 8, 64);
  auto index = GirIndex::Build(wl.points, wl.weights).value();  // n = 32
  ASSERT_TRUE(SaveGirIndex(Path("small.bin"), index).ok());
  const auto index_bytes = std::filesystem::file_size(Path("small.bin"));
  const size_t raw_bytes =
      (wl.points.size() + wl.weights.size()) * 8 * sizeof(double);
  EXPECT_LT(index_bytes * 8, raw_bytes);
}

TEST_F(IndexIoTest, LoadRejectsWrongDataset) {
  Workload wl = MakeWorkload(100, 20, 3, 65);
  auto index = GirIndex::Build(wl.points, wl.weights).value();
  ASSERT_TRUE(SaveGirIndex(Path("idx.bin"), index).ok());
  // Different cardinality.
  Workload other = MakeWorkload(101, 20, 3, 66);
  auto loaded = LoadGirIndex(Path("idx.bin"), other.points, other.weights);
  EXPECT_FALSE(loaded.ok());
  // Same shape, different values: only caught with verification on.
  Workload same_shape = MakeWorkload(100, 20, 3, 67);
  auto verified = LoadGirIndex(Path("idx.bin"), same_shape.points,
                               same_shape.weights, /*verify_cells=*/true);
  EXPECT_FALSE(verified.ok());
}

TEST_F(IndexIoTest, LoadRejectsCorruptFile) {
  std::ofstream out(Path("junk.bin"), std::ios::binary);
  out << "GARBAGEGARBAGEGARBAGE";
  out.close();
  auto loaded = LoadGirIndex(Path("junk.bin"),
                             testing_util::SmallPoints(10, 2, 68),
                             testing_util::SmallWeights(5, 2, 69));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST_F(IndexIoTest, LoadMissingFileIsIOError) {
  auto loaded = LoadGirIndex(Path("missing.bin"),
                             testing_util::SmallPoints(10, 2, 70),
                             testing_util::SmallWeights(5, 2, 71));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

TEST_F(IndexIoTest, TruncatedFileIsCorruption) {
  Workload wl = MakeWorkload(100, 20, 3, 72);
  auto index = GirIndex::Build(wl.points, wl.weights).value();
  ASSERT_TRUE(SaveGirIndex(Path("trunc.bin"), index).ok());
  std::filesystem::resize_file(
      Path("trunc.bin"), std::filesystem::file_size(Path("trunc.bin")) / 2);
  auto loaded = LoadGirIndex(Path("trunc.bin"), wl.points, wl.weights);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

// ---------------------------------------------------------------- Aggregate

TEST(AggregateTest, SingleQueryMatchesReverseKRanksRanks) {
  Workload wl = MakeWorkload(300, 50, 4, 81);
  auto index = GirIndex::Build(wl.points, wl.weights).value();
  Dataset bundle(4);
  bundle.AppendUnchecked(wl.points.row(42));
  auto agg = GirAggregateReverseRank(index, bundle, 10);
  auto rkr = index.ReverseKRanks(wl.points.row(42), 10);
  ASSERT_EQ(agg.size(), rkr.size());
  for (size_t i = 0; i < agg.size(); ++i) {
    EXPECT_EQ(agg[i].weight_id, rkr[i].weight_id);
    EXPECT_EQ(agg[i].aggregate_rank, rkr[i].rank);
  }
}

struct AggregateCase {
  size_t n, m, d, k, bundle;
  uint64_t seed;
};

class AggregateEquivalence : public ::testing::TestWithParam<AggregateCase> {
};

TEST_P(AggregateEquivalence, GirMatchesNaive) {
  const AggregateCase& c = GetParam();
  Workload wl = MakeWorkload(c.n, c.m, c.d, c.seed);
  auto index = GirIndex::Build(wl.points, wl.weights).value();
  Dataset bundle(c.d);
  for (size_t i = 0; i < c.bundle; ++i) {
    bundle.AppendUnchecked(wl.points.row((i * 37) % c.n));
  }
  EXPECT_EQ(GirAggregateReverseRank(index, bundle, c.k),
            NaiveAggregateReverseRank(wl.points, wl.weights, bundle, c.k));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AggregateEquivalence,
    ::testing::Values(AggregateCase{200, 40, 3, 5, 2, 82},
                      AggregateCase{300, 60, 5, 10, 3, 83},
                      AggregateCase{150, 30, 6, 7, 5, 84},
                      AggregateCase{400, 25, 4, 3, 4, 85},
                      AggregateCase{100, 80, 8, 15, 2, 86}));

TEST(AggregateTest, EmptyBundleOrKZero) {
  Workload wl = MakeWorkload(50, 10, 3, 87);
  auto index = GirIndex::Build(wl.points, wl.weights).value();
  Dataset empty_bundle(3);
  EXPECT_TRUE(GirAggregateReverseRank(index, empty_bundle, 5).empty());
  Dataset bundle(3);
  bundle.AppendUnchecked(wl.points.row(0));
  EXPECT_TRUE(GirAggregateReverseRank(index, bundle, 0).empty());
}

TEST(AggregateTest, AggregateRanksAreExactSums) {
  Workload wl = MakeWorkload(150, 25, 4, 88);
  auto index = GirIndex::Build(wl.points, wl.weights).value();
  Dataset bundle(4);
  bundle.AppendUnchecked(wl.points.row(10));
  bundle.AppendUnchecked(wl.points.row(90));
  auto result = GirAggregateReverseRank(index, bundle, 5);
  for (const auto& entry : result) {
    const int64_t expected =
        RankOfQuery(wl.points, wl.weights.row(entry.weight_id),
                    wl.points.row(10)) +
        RankOfQuery(wl.points, wl.weights.row(entry.weight_id),
                    wl.points.row(90));
    EXPECT_EQ(entry.aggregate_rank, expected);
  }
}

}  // namespace
}  // namespace gir
