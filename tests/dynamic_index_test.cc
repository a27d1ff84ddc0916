#include "grid/dynamic_index.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util/op_stream.h"
#include "core/naive.h"
#include "core/thread_pool.h"
#include "data/generators.h"
#include "data/rng.h"
#include "data/weights.h"
#include "grid/index_io.h"
#include "test_util.h"

namespace gir {
namespace {

DynamicIndexOptions MakeOptions(ScanMode mode) {
  DynamicIndexOptions options;
  options.gir.partitions = 8;
  options.gir.scan_mode = mode;
  options.gir.tau.k_max = 12;
  options.gir.tau.bins = 16;
  options.gir.tau.threads = 1;
  return options;
}

// The rebuild oracle (bench_util/op_stream.h): bit-identity against a
// fresh static index over the live sets (not just the naive scan) is the
// acceptance criterion — the dynamic paths must reproduce the static
// engines' exact answers.
void ExpectMatchesOracle(const DynamicGirIndex& dyn, const Dataset& queries,
                         size_t k, ThreadPool* pool,
                         const std::string& context) {
  const Result<RebuiltIndex> rebuilt = RebuildOracle(dyn);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().message();
  const GirIndex& oracle = *rebuilt.value().index;
  const Dataset& live_points = *rebuilt.value().points;
  const Dataset& live_weights = *rebuilt.value().weights;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    ConstRow q = queries.row(qi);
    const ReverseTopKResult rtk = dyn.ReverseTopK(q, k);
    EXPECT_EQ(rtk, oracle.ReverseTopK(q, k))
        << context << " rtk q=" << qi << " k=" << k;
    EXPECT_EQ(rtk, NaiveReverseTopK(live_points, live_weights, q, k))
        << context << " rtk-vs-naive q=" << qi << " k=" << k;
    const ReverseKRanksResult rkr = dyn.ReverseKRanks(q, k);
    EXPECT_EQ(rkr, oracle.ReverseKRanks(q, k))
        << context << " rkr q=" << qi << " k=" << k;
    EXPECT_EQ(rkr, NaiveReverseKRanks(live_points, live_weights, q, k))
        << context << " rkr-vs-naive q=" << qi << " k=" << k;
    if (pool != nullptr) {
      const Dataset one = testing_util::OneRow(q);
      EXPECT_EQ(rtk, dyn.ReverseTopKBatch(one, k, nullptr, pool)[0])
          << context << " parallel rtk q=" << qi << " k=" << k;
      EXPECT_EQ(rkr, dyn.ReverseKRanksBatch(one, k, nullptr, pool)[0])
          << context << " parallel rkr q=" << qi << " k=" << k;
    }
  }
  const auto rtk_batch = dyn.ReverseTopKBatch(queries, k);
  const auto rkr_batch = dyn.ReverseKRanksBatch(queries, k);
  EXPECT_EQ(rtk_batch, oracle.ReverseTopKBatch(queries, k))
      << context << " rtk batch k=" << k;
  EXPECT_EQ(rkr_batch, oracle.ReverseKRanksBatch(queries, k))
      << context << " rkr batch k=" << k;
  if (pool != nullptr) {
    EXPECT_EQ(rtk_batch, dyn.ReverseTopKBatch(queries, k, nullptr, pool))
        << context << " parallel rtk batch k=" << k;
    EXPECT_EQ(rkr_batch, dyn.ReverseKRanksBatch(queries, k, nullptr, pool))
        << context << " parallel rkr batch k=" << k;
  }
}

class DynamicChurnTest : public ::testing::TestWithParam<ScanMode> {};

// The tentpole acceptance test: a >= 1000-operation interleaved
// insert/delete schedule where, after every mutation batch, every query
// entry point must answer bit-identically to an index rebuilt from
// scratch over the live sets.
TEST_P(DynamicChurnTest, BitIdenticalToRebuildAcrossChurnSchedule) {
  const size_t d = 4;
  Dataset points = GenerateUniform(150, d, 11);
  Dataset weights = GenerateWeightsUniform(40, d, 12);
  auto built = DynamicGirIndex::Build(points, weights, MakeOptions(GetParam()));
  ASSERT_TRUE(built.ok()) << built.status().message();
  DynamicGirIndex dyn = std::move(built).value();

  Dataset queries = GenerateUniform(3, d, 13);
  ThreadPool pool(3);
  // Point inserts dominate (delta buffer growth); deletes keep a
  // nonempty live set, and weights occasionally run down to very few.
  OpStream stream(17, {.dim = d,
                       .mix = {.insert_point = 40, .delete_point = 20,
                               .insert_weight = 20, .delete_weight = 20},
                       .live_points = dyn.live_point_count(),
                       .live_weights = dyn.live_weight_count(),
                       .min_live_points = 20,
                       .min_live_weights = 5});
  const size_t total_ops = 1040;
  const size_t batch_ops = 40;
  size_t ops_done = 0;
  uint64_t max_generation = 0;
  while (ops_done < total_ops) {
    for (size_t i = 0; i < batch_ops; ++i, ++ops_done) {
      const Op op = stream.Next();
      const Status s = ApplyOp(dyn, op).status;
      ASSERT_TRUE(s.ok()) << OpKindName(op.kind) << ": " << s.ToString();
    }
    max_generation = std::max(max_generation, dyn.generation());
    const std::string context = "ops=" + std::to_string(ops_done);
    for (size_t k : {size_t{1}, size_t{7}}) {
      ExpectMatchesOracle(dyn, queries, k, &pool, context);
    }
    // k above the tau cap exercises the blocked fallback band; k above
    // |live P| exercises the everyone-qualifies path.
    ExpectMatchesOracle(dyn, queries, 25, nullptr, context);
    ExpectMatchesOracle(dyn, queries, dyn.live_point_count() + 3, nullptr,
                        context);
  }
  // The auto-compaction threshold (25% churn) must actually have fired
  // during a 1000-op schedule over a 190-row base.
  EXPECT_GT(max_generation, 0u);

  ASSERT_TRUE(dyn.Compact().ok());
  EXPECT_FALSE(dyn.dirty());
  ExpectMatchesOracle(dyn, queries, 7, &pool, "post-compact");
}

INSTANTIATE_TEST_SUITE_P(AllScanModes, DynamicChurnTest,
                         ::testing::Values(ScanMode::kWeightAtATime,
                                           ScanMode::kBlocked,
                                           ScanMode::kTauIndex),
                         [](const auto& info) {
                           switch (info.param) {
                             case ScanMode::kWeightAtATime:
                               return "WeightAtATime";
                             case ScanMode::kBlocked:
                               return "Blocked";
                             default:
                               return "TauIndex";
                           }
                         });

TEST(DynamicIndexTest, DeleteThenReinsertSameRowMatchesOracle) {
  const size_t d = 3;
  Dataset points = GenerateUniform(60, d, 21);
  Dataset weights = GenerateWeightsUniform(15, d, 22);
  DynamicIndexOptions options = MakeOptions(ScanMode::kTauIndex);
  options.auto_compact = false;
  auto built = DynamicGirIndex::Build(points, weights, options);
  ASSERT_TRUE(built.ok());
  DynamicGirIndex dyn = std::move(built).value();
  Dataset queries = GenerateUniform(2, d, 23);

  // Copy rows out before mutating, then delete and re-insert them: the
  // reinserted rows take fresh live ids at the end of the order.
  std::vector<std::vector<double>> rows;
  for (VectorId id : {VectorId{5}, VectorId{17}}) {
    ConstRow row = points.row(id);
    rows.emplace_back(row.begin(), row.end());
  }
  ASSERT_TRUE(dyn.DeletePoint(17).ok());
  ASSERT_TRUE(dyn.DeletePoint(5).ok());
  ExpectMatchesOracle(dyn, queries, 5, nullptr, "after-delete");
  for (const auto& row : rows) {
    ASSERT_TRUE(dyn.InsertPoint(ConstRow(row.data(), row.size())).ok());
  }
  ExpectMatchesOracle(dyn, queries, 5, nullptr, "after-reinsert");

  // Same round-trip on the weight side.
  ConstRow w = weights.row(3);
  std::vector<double> wrow(w.begin(), w.end());
  ASSERT_TRUE(dyn.DeleteWeight(3).ok());
  ExpectMatchesOracle(dyn, queries, 5, nullptr, "after-weight-delete");
  ASSERT_TRUE(dyn.InsertWeight(ConstRow(wrow.data(), wrow.size())).ok());
  ExpectMatchesOracle(dyn, queries, 5, nullptr, "after-weight-reinsert");
}

TEST(DynamicIndexTest, EmptyDeltaDelegatesAndCompactIsIdempotent) {
  Dataset points = GenerateUniform(50, 3, 31);
  Dataset weights = GenerateWeightsUniform(10, 3, 32);
  auto built =
      DynamicGirIndex::Build(points, weights, MakeOptions(ScanMode::kBlocked));
  ASSERT_TRUE(built.ok());
  DynamicGirIndex dyn = std::move(built).value();
  EXPECT_FALSE(dyn.dirty());
  EXPECT_EQ(dyn.generation(), 0u);
  // Compacting a clean index is a no-op: same generation, still clean.
  ASSERT_TRUE(dyn.Compact().ok());
  EXPECT_EQ(dyn.generation(), 0u);
  Dataset queries = GenerateUniform(2, 3, 33);
  ExpectMatchesOracle(dyn, queries, 4, nullptr, "clean");
}

TEST(DynamicIndexTest, QueriesWithNoLiveWeightsAnswerEmpty) {
  Dataset points = GenerateUniform(30, 3, 41);
  Dataset weights = GenerateWeightsUniform(3, 3, 42);
  DynamicIndexOptions options = MakeOptions(ScanMode::kBlocked);
  options.auto_compact = false;
  auto built = DynamicGirIndex::Build(points, weights, options);
  ASSERT_TRUE(built.ok());
  DynamicGirIndex dyn = std::move(built).value();
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(dyn.DeleteWeight(0).ok());
  }
  EXPECT_EQ(dyn.live_weight_count(), 0u);
  Dataset queries = GenerateUniform(1, 3, 43);
  EXPECT_TRUE(dyn.ReverseTopK(queries.row(0), 5).empty());
  EXPECT_TRUE(dyn.ReverseKRanks(queries.row(0), 5).empty());
}

TEST(DynamicIndexTest, MutationErrorsAreReported) {
  Dataset points = GenerateUniform(20, 3, 51);
  Dataset weights = GenerateWeightsUniform(5, 3, 52);
  auto built =
      DynamicGirIndex::Build(points, weights, MakeOptions(ScanMode::kBlocked));
  ASSERT_TRUE(built.ok());
  DynamicGirIndex dyn = std::move(built).value();

  EXPECT_EQ(dyn.DeletePoint(100).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(dyn.DeleteWeight(100).code(), StatusCode::kInvalidArgument);
  const std::vector<double> bad_weight = {0.9, 0.9, 0.9};
  EXPECT_FALSE(
      dyn.InsertWeight(ConstRow(bad_weight.data(), bad_weight.size())).ok());
  const std::vector<double> bad_width = {0.5, 0.5};
  EXPECT_FALSE(
      dyn.InsertPoint(ConstRow(bad_width.data(), bad_width.size())).ok());
}

TEST(DynamicIndexTest, AutoCompactTriggersAtThreshold) {
  Dataset points = GenerateUniform(40, 3, 61);
  Dataset weights = GenerateWeightsUniform(10, 3, 62);
  DynamicIndexOptions options = MakeOptions(ScanMode::kBlocked);
  options.compact_threshold = 0.1;  // 50 base rows -> 6th op compacts
  auto built = DynamicGirIndex::Build(points, weights, options);
  ASSERT_TRUE(built.ok());
  DynamicGirIndex dyn = std::move(built).value();
  Rng rng(63);
  for (size_t i = 0; i < 6; ++i) {
    const Dataset fresh = GenerateUniform(1, 3, rng.NextU64());
    ASSERT_TRUE(dyn.InsertPoint(fresh.row(0)).ok());
  }
  EXPECT_EQ(dyn.generation(), 1u);
  EXPECT_FALSE(dyn.dirty());
  EXPECT_EQ(dyn.live_point_count(), 46u);
}

TEST(DynamicIndexTest, CompactionReleasesTheDeltaMemory) {
  for (ScanMode mode : {ScanMode::kBlocked, ScanMode::kTauIndex}) {
    SCOPED_TRACE(mode == ScanMode::kBlocked ? "blocked" : "tau");
    Dataset points = GenerateUniform(1000, 4, 65);
    Dataset weights = GenerateWeightsUniform(200, 4, 66);
    DynamicIndexOptions options = MakeOptions(mode);
    options.auto_compact = false;
    auto built = DynamicGirIndex::Build(points, weights, options);
    ASSERT_TRUE(built.ok());
    DynamicGirIndex dyn = std::move(built).value();
    Rng rng(67);
    for (size_t i = 0; i < 300; ++i) {
      const Dataset fresh = GenerateUniform(1, 4, rng.NextU64());
      ASSERT_TRUE(dyn.InsertPoint(fresh.row(0)).ok());
      if (i % 3 == 0) {
        ASSERT_TRUE(
            dyn.DeletePoint(rng.NextU64() % dyn.live_point_count()).ok());
      }
    }
    ASSERT_TRUE(dyn.Compact().ok());
    // The compacted index must cost what a fresh build over the same live
    // sets costs, not keep the old delta's score arrays.
    const Dataset live_points = dyn.LivePoints();
    const Dataset live_weights = dyn.LiveWeights();
    auto rebuilt = DynamicGirIndex::Build(live_points, live_weights, options);
    ASSERT_TRUE(rebuilt.ok());
    const size_t fresh_bytes = rebuilt.value().MemoryBytes().total();
    EXPECT_LE(dyn.MemoryBytes().total(), fresh_bytes + fresh_bytes / 20);
  }
}

TEST(DynamicIndexTest, OutOfRangeWeightInsertCompactsImmediately) {
  Dataset points = GenerateUniform(30, 4, 71);
  // A tight weight set: the generation's weight grid tops out near 1/d.
  Dataset weights = GenerateWeightsUniform(8, 4, 72);
  DynamicIndexOptions options = MakeOptions(ScanMode::kBlocked);
  options.auto_compact = false;
  auto built = DynamicGirIndex::Build(points, weights, options);
  ASSERT_TRUE(built.ok());
  DynamicGirIndex dyn = std::move(built).value();
  // A near-degenerate preference concentrates all mass on one dimension —
  // far above any value the build-time weight partitioner covered.
  const std::vector<double> spike = {0.97, 0.01, 0.01, 0.01};
  ASSERT_TRUE(dyn.InsertWeight(ConstRow(spike.data(), spike.size())).ok());
  EXPECT_EQ(dyn.generation(), 1u);  // compacted immediately
  EXPECT_FALSE(dyn.dirty());
  Dataset queries = GenerateUniform(2, 4, 73);
  ExpectMatchesOracle(dyn, queries, 5, nullptr, "post-spike");
}

class DynamicIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("gir_dyn_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  /// A churned (dirty) index: tombstones on both sides plus delta rows.
  DynamicGirIndex MakeDirty(ScanMode mode) {
    Dataset points = GenerateUniform(60, 3, 81);
    Dataset weights = GenerateWeightsUniform(12, 3, 82);
    DynamicIndexOptions options = MakeOptions(mode);
    options.auto_compact = false;
    auto built = DynamicGirIndex::Build(points, weights, options);
    EXPECT_TRUE(built.ok());
    DynamicGirIndex dyn = std::move(built).value();
    Rng rng(83);
    for (size_t i = 0; i < 8; ++i) {
      const Dataset fresh = GenerateUniform(1, 3, rng.NextU64());
      EXPECT_TRUE(dyn.InsertPoint(fresh.row(0)).ok());
    }
    EXPECT_TRUE(dyn.DeletePoint(7).ok());
    EXPECT_TRUE(dyn.DeletePoint(30).ok());
    EXPECT_TRUE(dyn.DeleteWeight(2).ok());
    const Dataset fresh_w = GenerateWeightsUniform(2, 3, 84);
    EXPECT_TRUE(dyn.InsertWeight(fresh_w.row(0)).ok());
    EXPECT_TRUE(dyn.InsertWeight(fresh_w.row(1)).ok());
    EXPECT_TRUE(dyn.dirty());
    return dyn;
  }

  std::filesystem::path dir_;
};

TEST_F(DynamicIoTest, DirtyIndexRoundTripsBitIdentically) {
  for (ScanMode mode : {ScanMode::kBlocked, ScanMode::kTauIndex}) {
    DynamicGirIndex dyn = MakeDirty(mode);
    const std::string path = Path("dyn.bin");
    ASSERT_TRUE(SaveDynamicIndex(path, dyn).ok());
    auto loaded = LoadDynamicIndex(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    const DynamicGirIndex& restored = loaded.value();
    EXPECT_EQ(restored.generation(), dyn.generation());
    EXPECT_EQ(restored.dirty(), dyn.dirty());
    EXPECT_EQ(restored.live_point_count(), dyn.live_point_count());
    EXPECT_EQ(restored.live_weight_count(), dyn.live_weight_count());
    Dataset queries = GenerateUniform(3, 3, 85);
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      for (size_t k : {size_t{1}, size_t{5}, size_t{40}}) {
        EXPECT_EQ(restored.ReverseTopK(queries.row(qi), k),
                  dyn.ReverseTopK(queries.row(qi), k));
        EXPECT_EQ(restored.ReverseKRanks(queries.row(qi), k),
                  dyn.ReverseKRanks(queries.row(qi), k));
      }
    }
  }
}

TEST_F(DynamicIoTest, GenerationSurvivesRoundTrip) {
  DynamicGirIndex dyn = MakeDirty(ScanMode::kBlocked);
  ASSERT_TRUE(dyn.Compact().ok());
  EXPECT_EQ(dyn.generation(), 1u);
  const std::string path = Path("gen.bin");
  ASSERT_TRUE(SaveDynamicIndex(path, dyn).ok());
  auto loaded = LoadDynamicIndex(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().generation(), 1u);
  EXPECT_FALSE(loaded.value().dirty());
}

TEST_F(DynamicIoTest, LoadRejectsBadMagic) {
  std::ofstream out(Path("bad.bin"), std::ios::binary);
  out << "GIRDYN99_and_then_some_padding_bytes";
  out.close();
  auto loaded = LoadDynamicIndex(Path("bad.bin"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST_F(DynamicIoTest, LoadRejectsTruncation) {
  DynamicGirIndex dyn = MakeDirty(ScanMode::kBlocked);
  const std::string path = Path("trunc.bin");
  ASSERT_TRUE(SaveDynamicIndex(path, dyn).ok());
  std::filesystem::resize_file(path,
                               std::filesystem::file_size(path) - 16);
  auto loaded = LoadDynamicIndex(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST_F(DynamicIoTest, LoadRejectsTrailingGarbage) {
  DynamicGirIndex dyn = MakeDirty(ScanMode::kBlocked);
  const std::string path = Path("trail.bin");
  ASSERT_TRUE(SaveDynamicIndex(path, dyn).ok());
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out << "junk";
  out.close();
  auto loaded = LoadDynamicIndex(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

/// Overwrites `size` bytes at `offset` of `path` with `bytes`.
void PatchFile(const std::string& path, size_t offset, const void* bytes,
               size_t size) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.is_open());
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(static_cast<const char*>(bytes), static_cast<std::streamsize>(size));
}

// GIRDYN01 header layout: magic(8) generation(8) dim(4) flags(4)
// partitions(4) bound_mode(4) use_domin(4) scan_mode(4) tau_k_max(4)
// tau_bins(4) compact_threshold(8) auto_compact(4), then u64
// base_point_count at offset 60.
TEST_F(DynamicIoTest, LoadRejectsHostileHeaderFields) {
  DynamicGirIndex dyn = MakeDirty(ScanMode::kBlocked);
  const std::string good = Path("good.bin");
  ASSERT_TRUE(SaveDynamicIndex(good, dyn).ok());
  struct Case {
    const char* name;
    size_t offset;
    uint64_t value;
    size_t size;
  };
  const uint64_t huge_count = uint64_t{1} << 61;  // * dim * 8 wraps around
  const Case cases[] = {
      {"zero dim", 16, 0, 4},
      {"oversized dim", 16, uint64_t{1} << 20, 4},
      {"unknown flags", 20, 0xff, 4},
      {"zero partitions", 24, 0, 4},
      {"oversized partitions", 24, 4096, 4},
      {"unknown bound mode", 28, 99, 4},
      {"unknown scan mode", 36, 99, 4},
      {"allocation-bomb point count", 60, huge_count, 8},
  };
  for (const Case& c : cases) {
    const std::string path = Path("hostile.bin");
    std::filesystem::copy_file(
        good, path, std::filesystem::copy_options::overwrite_existing);
    PatchFile(path, c.offset, &c.value, c.size);
    auto loaded = LoadDynamicIndex(path);
    ASSERT_FALSE(loaded.ok()) << c.name;
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption) << c.name;
  }
}

TEST_F(DynamicIoTest, LoadRejectsBadBitmapBytes) {
  DynamicGirIndex dyn = MakeDirty(ScanMode::kBlocked);
  const std::string path = Path("bitmap.bin");
  ASSERT_TRUE(SaveDynamicIndex(path, dyn).ok());
  // The alive bitmaps are the last payload before EOF (no tau in blocked
  // mode); flip the final byte to a non-boolean value.
  const size_t size = std::filesystem::file_size(path);
  const uint8_t bad = 7;
  PatchFile(path, size - 1, &bad, 1);
  auto loaded = LoadDynamicIndex(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace gir
