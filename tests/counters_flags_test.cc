#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/thread_pool.h"
#include "data/generators.h"
#include "data/weights.h"
#include "grid/gir_queries.h"
#include "grid/index_io.h"
#include "test_util.h"

namespace gir {
namespace {

// ---- Satellite: batch QueryStats accounting ------------------------------
//
// The batch entry points must report the same weights_evaluated as the sum
// of the equivalent per-query runs on the same engine — including queries
// that are dead on entry (>= k dominators), k == 0, and both domin modes.

struct CounterCase {
  ScanMode mode;
  bool use_domin;
};

class BatchCounterTest : public ::testing::TestWithParam<CounterCase> {};

TEST_P(BatchCounterTest, BatchWeightsEvaluatedMatchesPerQuerySum) {
  const size_t d = 4;
  Dataset points = GenerateUniform(300, d, 91);
  Dataset weights = GenerateWeightsUniform(40, d, 92);
  GirOptions options;
  options.partitions = 8;
  options.scan_mode = GetParam().mode;
  options.use_domin = GetParam().use_domin;
  options.tau.k_max = 8;
  options.tau.bins = 16;
  options.tau.threads = 1;
  auto built = GirIndex::Build(points, weights, options);
  ASSERT_TRUE(built.ok());
  const GirIndex& index = built.value();

  // Query mix: two ordinary queries, one near the max corner (dominated
  // by most of P, so it dies on entry when domin is on), one near the
  // origin (dominates nothing).
  Dataset queries(d);
  ASSERT_TRUE(queries.Append(GenerateUniform(1, d, 93).row(0)).ok());
  ASSERT_TRUE(queries.Append(GenerateUniform(1, d, 94).row(0)).ok());
  const std::vector<double> corner(d, 0.99);
  ASSERT_TRUE(queries.Append(ConstRow(corner.data(), corner.size())).ok());
  const std::vector<double> origin(d, 0.01);
  ASSERT_TRUE(queries.Append(ConstRow(origin.data(), origin.size())).ok());

  ThreadPool pool(3);
  for (size_t k : {size_t{0}, size_t{3}, size_t{20}}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    QueryStats batch_rtk, batch_rkr;
    index.ReverseTopKBatch(queries, k, &batch_rtk);
    index.ReverseKRanksBatch(queries, k, &batch_rkr);
    QueryStats sum_rtk, sum_rkr;
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      index.ReverseTopK(queries.row(qi), k, &sum_rtk);
      index.ReverseKRanks(queries.row(qi), k, &sum_rkr);
    }
    EXPECT_EQ(batch_rtk.weights_evaluated, sum_rtk.weights_evaluated);
    EXPECT_EQ(batch_rkr.weights_evaluated, sum_rkr.weights_evaluated);

    QueryStats par_rtk, par_rkr;
    index.ReverseTopKBatch(queries, k, &par_rtk, &pool);
    index.ReverseKRanksBatch(queries, k, &par_rkr, &pool);
    EXPECT_EQ(par_rtk.weights_evaluated, sum_rtk.weights_evaluated);
    EXPECT_EQ(par_rkr.weights_evaluated, sum_rkr.weights_evaluated);
  }
}

INSTANTIATE_TEST_SUITE_P(
    EnginesAndDomin, BatchCounterTest,
    ::testing::Values(CounterCase{ScanMode::kBlocked, true},
                      CounterCase{ScanMode::kBlocked, false},
                      CounterCase{ScanMode::kTauIndex, true},
                      CounterCase{ScanMode::kTauIndex, false}),
    [](const auto& info) {
      std::string name = info.param.mode == ScanMode::kBlocked
                             ? "Blocked"
                             : "TauIndex";
      return name + (info.param.use_domin ? "Domin" : "NoDomin");
    });

TEST(BatchCounterTest, KZeroEvaluatesNothingOnEveryEntryPoint) {
  Dataset points = GenerateUniform(100, 3, 95);
  Dataset weights = GenerateWeightsUniform(20, 3, 96);
  GirOptions options;
  options.partitions = 8;
  options.scan_mode = ScanMode::kBlocked;
  options.use_domin = false;  // previously k=0 scanned everything here
  auto built = GirIndex::Build(points, weights, options);
  ASSERT_TRUE(built.ok());
  const GirIndex& index = built.value();
  Dataset queries = GenerateUniform(3, 3, 97);
  ThreadPool pool(2);

  QueryStats stats;
  EXPECT_TRUE(index.ReverseTopK(queries.row(0), 0, &stats).empty());
  EXPECT_TRUE(index.ReverseKRanks(queries.row(0), 0, &stats).empty());
  const Dataset one = testing_util::OneRow(queries.row(0));
  EXPECT_TRUE(index.ReverseTopKBatch(one, 0, &stats, &pool)[0].empty());
  EXPECT_TRUE(index.ReverseKRanksBatch(one, 0, &stats, &pool)[0].empty());
  index.ReverseTopKBatch(queries, 0, &stats);
  index.ReverseKRanksBatch(queries, 0, &stats);
  index.ReverseTopKBatch(queries, 0, &stats, &pool);
  index.ReverseKRanksBatch(queries, 0, &stats, &pool);
  EXPECT_EQ(stats.weights_evaluated, 0u);
  EXPECT_EQ(stats.inner_products, 0u);
}

// ---- Satellite: --threads flag parsing -----------------------------------

TEST(ParseThreadsValueTest, AcceptsDigitsOnly) {
  size_t threads = 0;
  EXPECT_TRUE(bench::ParseThreadsValue("4", &threads));
  EXPECT_EQ(threads, 4u);
  EXPECT_TRUE(bench::ParseThreadsValue("0", &threads));
  EXPECT_EQ(threads, 0u);
  EXPECT_TRUE(bench::ParseThreadsValue("128", &threads));
  EXPECT_EQ(threads, 128u);
}

TEST(ParseThreadsValueTest, RejectsGarbage) {
  size_t threads = 0;
  EXPECT_FALSE(bench::ParseThreadsValue("-3", &threads));
  EXPECT_FALSE(bench::ParseThreadsValue("+3", &threads));
  EXPECT_FALSE(bench::ParseThreadsValue("foo", &threads));
  EXPECT_FALSE(bench::ParseThreadsValue("3foo", &threads));
  EXPECT_FALSE(bench::ParseThreadsValue("3.5", &threads));
  EXPECT_FALSE(bench::ParseThreadsValue("", &threads));
  EXPECT_FALSE(bench::ParseThreadsValue(nullptr, &threads));
  // One digit past max size_t.
  EXPECT_FALSE(bench::ParseThreadsValue("184467440737095516160", &threads));
}

TEST(ParseThreadsFlagTest, ParsesAndConsumesValidFlag) {
  char prog[] = "bench";
  char flag[] = "--threads=6";
  char other[] = "--foo";
  char* argv[] = {prog, flag, other, nullptr};
  int argc = 3;
  EXPECT_EQ(bench::ParseThreadsFlag(&argc, argv), 6u);
  EXPECT_EQ(argc, 2);
  EXPECT_STREQ(argv[1], "--foo");
}

TEST(ParseThreadsFlagTest, SeparateArgumentForm) {
  char prog[] = "bench";
  char flag[] = "--threads";
  char value[] = "3";
  char* argv[] = {prog, flag, value, nullptr};
  int argc = 3;
  EXPECT_EQ(bench::ParseThreadsFlag(&argc, argv), 3u);
  EXPECT_EQ(argc, 1);
}

TEST(ParseThreadsFlagDeathTest, NegativeValueExits) {
  char prog[] = "bench";
  char flag[] = "--threads";
  char value[] = "-3";
  char* argv[] = {prog, flag, value, nullptr};
  int argc = 3;
  EXPECT_EXIT(bench::ParseThreadsFlag(&argc, argv),
              ::testing::ExitedWithCode(2), "error: --threads");
}

TEST(ParseThreadsFlagDeathTest, NonNumericValueExits) {
  char prog[] = "bench";
  char flag[] = "--threads=foo";
  char* argv[] = {prog, flag, nullptr};
  int argc = 2;
  EXPECT_EXIT(bench::ParseThreadsFlag(&argc, argv),
              ::testing::ExitedWithCode(2), "error: --threads");
}

TEST(ParseThreadsFlagDeathTest, MissingValueExits) {
  char prog[] = "bench";
  char flag[] = "--threads";
  char* argv[] = {prog, flag, nullptr};
  int argc = 2;
  EXPECT_EXIT(bench::ParseThreadsFlag(&argc, argv),
              ::testing::ExitedWithCode(2), "error: --threads");
}

// ---- Satellite: hostile index headers ------------------------------------

class HostileHeaderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("gir_hostile_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    points_ = GenerateUniform(80, 3, 101);
    weights_ = GenerateWeightsUniform(10, 3, 102);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  void Patch(const std::string& path, size_t offset, const void* bytes,
             size_t size) {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(static_cast<const char*>(bytes),
            static_cast<std::streamsize>(size));
  }

  std::filesystem::path dir_;
  Dataset points_{3};
  Dataset weights_{3};
};

TEST_F(HostileHeaderTest, GirLoaderRejectsBadPartitionCounts) {
  GirOptions options;
  options.partitions = 8;
  auto built = GirIndex::Build(points_, weights_, options);
  ASSERT_TRUE(built.ok());
  const std::string good = Path("good.bin");
  ASSERT_TRUE(SaveGirIndex(good, built.value()).ok());
  // GIRIDX01 layout: magic(8), then u32 partitions at offset 8.
  for (uint32_t partitions : {uint32_t{0}, uint32_t{4096}, ~uint32_t{0}}) {
    const std::string path = Path("bad_partitions.bin");
    std::filesystem::copy_file(
        good, path, std::filesystem::copy_options::overwrite_existing);
    Patch(path, 8, &partitions, sizeof(partitions));
    auto loaded = LoadGirIndex(path, points_, weights_);
    ASSERT_FALSE(loaded.ok()) << partitions;
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption) << partitions;
  }
}

TEST_F(HostileHeaderTest, GirLoaderRejectsShapeMismatchBeforeAllocating) {
  GirOptions options;
  options.partitions = 8;
  auto built = GirIndex::Build(points_, weights_, options);
  ASSERT_TRUE(built.ok());
  const std::string path = Path("shape.bin");
  ASSERT_TRUE(SaveGirIndex(path, built.value()).ok());
  // Re-attaching to datasets of a different shape must fail cleanly: the
  // packed headers no longer match the data they would be unpacked for.
  Dataset fewer = GenerateUniform(40, 3, 103);
  auto loaded = LoadGirIndex(path, fewer, weights_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST_F(HostileHeaderTest, TauLoaderRejectsHostileHeaderFields) {
  TauIndexOptions tau_options;
  tau_options.k_max = 8;
  tau_options.bins = 16;
  tau_options.threads = 1;
  auto built = TauIndex::Build(points_, weights_, tau_options);
  ASSERT_TRUE(built.ok());
  const std::string good = Path("tau.bin");
  ASSERT_TRUE(SaveTauIndex(good, built.value()).ok());
  // GIRTAU01 layout: magic(8) k_cap(4) bins(4) dim(4) |W|(8) |P|(8).
  struct Case {
    const char* name;
    size_t offset;
    uint64_t value;
    size_t size;
  };
  const Case cases[] = {
      {"k_cap == 0", 8, 0, 4},
      // k_cap = 2^31 with |P| forged to match: the τ array k_cap·|W|
      // implied by the header reaches tens of gigabytes — must be
      // rejected against the actual file size, not allocated.
      {"allocation-bomb k_cap", 8, uint64_t{1} << 31, 4},
      {"bins < 2", 12, 1, 4},
      {"oversized bins", 12, uint64_t{1} << 24, 4},
      {"num_points == 0", 28, 0, 8},
      {"num_points overflow", 28, ~uint64_t{0}, 8},
  };
  for (const Case& c : cases) {
    const std::string path = Path("tau_bad.bin");
    std::filesystem::copy_file(
        good, path, std::filesystem::copy_options::overwrite_existing);
    Patch(path, c.offset, &c.value, c.size);
    if (std::strcmp(c.name, "allocation-bomb k_cap") == 0) {
      // Keep k_cap <= num_points so the size check is what rejects it.
      const uint64_t fake_points = uint64_t{1} << 32;
      Patch(path, 28, &fake_points, sizeof(fake_points));
    }
    auto loaded = LoadTauIndex(path, weights_);
    ASSERT_FALSE(loaded.ok()) << c.name;
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption) << c.name;
  }
}

TEST_F(HostileHeaderTest, TauLoaderStillRoundTripsGoodFiles) {
  TauIndexOptions tau_options;
  tau_options.k_max = 8;
  tau_options.bins = 16;
  tau_options.threads = 1;
  auto built = TauIndex::Build(points_, weights_, tau_options);
  ASSERT_TRUE(built.ok());
  const std::string path = Path("tau_good.bin");
  ASSERT_TRUE(SaveTauIndex(path, built.value()).ok());
  auto loaded = LoadTauIndex(path, weights_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded.value().k_cap(), built.value().k_cap());
  EXPECT_EQ(loaded.value().tau(), built.value().tau());
}

}  // namespace
}  // namespace gir
