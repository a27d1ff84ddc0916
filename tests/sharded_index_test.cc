// Tests of the sharded scale-out router (grid/sharded_index.h) and its
// GIRSHD01 persistence (grid/index_io.h). The load-bearing property is
// bit-identity: a ShardedGirIndex fed an operation stream answers every
// query exactly as a single DynamicGirIndex fed the same stream — same
// ids, same ranks, same tie order — for any shard count, under
// concurrent churn, and across a save/load cycle. The merge oracle here
// (bench_util/op_stream.h's OracleChecker over one seeded OpStream) is
// the authoritative check; bench_shard_scaling re-runs it before
// measuring, and oracle_sweep_test runs it over hundreds of seeds.
//
// This suite is deliberately fast-labelled: the TSan CI lane skips slow
// suites, and the concurrent churn test below is exactly what it exists
// to race-check.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util/op_stream.h"
#include "data/generators.h"
#include "data/weights.h"
#include "grid/dynamic_index.h"
#include "grid/index_io.h"
#include "grid/sharded_index.h"

namespace gir {
namespace {

Dataset MakePoints(size_t n, size_t d, uint64_t seed) {
  return GeneratePoints(PointDistribution::kUniform, n, d, seed);
}

Dataset MakeWeights(size_t m, size_t d, uint64_t seed) {
  return GenerateWeights(WeightDistribution::kUniform, m, d, seed);
}

DynamicGirIndex BuildSingle(const Dataset& points, const Dataset& weights,
                            ScanMode mode = ScanMode::kBlocked) {
  DynamicIndexOptions options;
  options.gir.scan_mode = mode;
  auto index = DynamicGirIndex::Build(points, weights, options);
  EXPECT_TRUE(index.ok()) << index.status().ToString();
  return std::move(index).value();
}

std::unique_ptr<ShardedGirIndex> BuildSharded(
    const Dataset& points, const Dataset& weights, size_t shards,
    ScanMode mode = ScanMode::kBlocked) {
  ShardedIndexOptions options;
  options.shards = shards;
  options.dynamic.gir.scan_mode = mode;
  auto index = ShardedGirIndex::Build(points, weights, options);
  EXPECT_TRUE(index.ok()) << index.status().ToString();
  return std::move(index).value();
}

/// The merge oracle (bench_util/op_stream.h): one seeded operation
/// stream applied to a single DynamicGirIndex and to a sharded router,
/// query-for-query bit-identical. Statuses must agree too, so both sides
/// consume the same live-id space and stay in lockstep for the whole
/// stream.
void RunMergeOracle(size_t shards, size_t num_ops, ScanMode mode,
                    uint64_t seed) {
  ShardedIndexOptions options;
  options.shards = shards;
  options.dynamic.gir.scan_mode = mode;
  size_t queries = 0;
  const Status s = CheckShardedMerge(options, num_ops, seed, &queries);
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_GT(queries, num_ops / 8);
}

TEST(ShardedIndexTest, MergeOracleMatchesSingleIndexAcrossShardCounts) {
  for (size_t shards : {1, 2, 4}) {
    SCOPED_TRACE(shards);
    RunMergeOracle(shards, /*num_ops=*/1000,
                   ScanMode::kBlocked, /*seed=*/90 + shards);
  }
}

// Kept under its old name from when an inline (caller-executed) mode
// existed; worker lanes are now the only executor, and this case holds
// the oracle at an odd shard count.
TEST(ShardedIndexTest, MergeOracleHoldsInInlineExecutionMode) {
  RunMergeOracle(/*shards=*/3, /*num_ops=*/1000,
                 ScanMode::kBlocked, /*seed=*/201);
}

TEST(ShardedIndexTest, MergeOracleHoldsUnderTauScanMode) {
  RunMergeOracle(/*shards=*/2, /*num_ops=*/300,
                 ScanMode::kTauIndex, /*seed=*/301);
}

TEST(ShardedIndexTest, BatchQueriesMergeBitIdentically) {
  const size_t kDim = 4;
  const Dataset points = MakePoints(200, kDim, 41);
  const Dataset weights = MakeWeights(150, kDim, 42);
  DynamicGirIndex single = BuildSingle(points, weights);
  auto sharded = BuildSharded(points, weights, 4);

  // Churn both sides a little so the batch runs against deltas and
  // tombstones, not just the base generation.
  std::mt19937_64 rng(43);
  for (int i = 0; i < 30; ++i) {
    const std::vector<double> w = RandomWeightRow(rng, kDim);
    ASSERT_TRUE(single.InsertWeight(ConstRow(w.data(), kDim)).ok());
    ASSERT_TRUE(sharded->InsertWeight(ConstRow(w.data(), kDim)).ok());
  }
  for (int i = 0; i < 10; ++i) {
    const VectorId id = static_cast<VectorId>(rng() % 150);
    ASSERT_TRUE(single.DeleteWeight(id).ok());
    ASSERT_TRUE(sharded->DeleteWeight(id).ok());
  }

  Dataset queries(kDim);
  for (size_t i = 0; i < 48; ++i) queries.AppendUnchecked(points.row(i));
  EXPECT_EQ(sharded->ReverseTopKBatch(queries, 6),
            single.ReverseTopKBatch(queries, 6));
  EXPECT_EQ(sharded->ReverseKRanksBatch(queries, 5),
            single.ReverseKRanksBatch(queries, 5));
}

TEST(ShardedIndexTest, ShardsMayStartEmptyWhenWeightsAreFewerThanShards) {
  const size_t kDim = 3;
  const Dataset points = MakePoints(80, kDim, 51);
  const Dataset weights = MakeWeights(2, kDim, 52);  // shards 2, 3 empty
  DynamicGirIndex single = BuildSingle(points, weights);
  auto sharded = BuildSharded(points, weights, 4);

  std::mt19937_64 rng(53);
  const std::vector<double> q = RandomPointRow(rng, kDim);
  const ConstRow row(q.data(), q.size());
  EXPECT_EQ(sharded->ReverseTopK(row, 4), single.ReverseTopK(row, 4));
  EXPECT_EQ(sharded->ReverseKRanks(row, 4), single.ReverseKRanks(row, 4));

  // Round-robin inserts fill the empty shards; answers stay identical.
  for (int i = 0; i < 10; ++i) {
    const std::vector<double> w = RandomWeightRow(rng, kDim);
    ASSERT_TRUE(single.InsertWeight(ConstRow(w.data(), kDim)).ok());
    ASSERT_TRUE(sharded->InsertWeight(ConstRow(w.data(), kDim)).ok());
  }
  EXPECT_EQ(sharded->ReverseKRanks(row, 6), single.ReverseKRanks(row, 6));
  for (const ShardStatsSnapshot& snap : sharded->ShardStats()) {
    EXPECT_GT(snap.live_weights, 0u);
  }
}

TEST(ShardedIndexTest, InvalidMutationsAreRejectedWithoutConsumingSequence) {
  const size_t kDim = 3;
  const Dataset points = MakePoints(60, kDim, 61);
  const Dataset weights = MakeWeights(40, kDim, 62);
  auto sharded = BuildSharded(points, weights, 2);

  const std::vector<double> short_row = {1.0, 2.0};
  EXPECT_FALSE(
      sharded->InsertPoint(ConstRow(short_row.data(), 2)).ok());
  const std::vector<double> negative = {-1.0, 2.0, 3.0};
  EXPECT_FALSE(sharded->InsertPoint(ConstRow(negative.data(), 3)).ok());
  const std::vector<double> not_normalized = {0.5, 0.2, 0.2};
  EXPECT_FALSE(
      sharded->InsertWeight(ConstRow(not_normalized.data(), 3)).ok());
  EXPECT_FALSE(sharded->DeletePoint(1000).ok());
  EXPECT_FALSE(sharded->DeleteWeight(1000).ok());
  EXPECT_EQ(sharded->sequence(), 0u);  // failed ops consume no sequence

  uint64_t seq = 0;
  const std::vector<double> w = {0.5, 0.25, 0.25};
  ASSERT_TRUE(sharded->InsertWeight(ConstRow(w.data(), 3), &seq).ok());
  EXPECT_EQ(seq, 1u);
}

/// Concurrent churn: multiple reader threads race one writer per shard.
/// Every mutation records the sequence number it was admitted at, every
/// query the sequence it executed at; serial replay into a single
/// DynamicGirIndex must reproduce each observation bit-for-bit. Run under
/// TSan in CI, this is also the data-race gate for the router internals.
TEST(ShardedIndexTest, ConcurrentChurnReplaysToBitIdenticalAnswers) {
  const size_t kDim = 3;
  const size_t kShards = 2;
  const Dataset points = MakePoints(80, kDim, 71);
  const Dataset weights = MakeWeights(120, kDim, 72);
  auto sharded = BuildSharded(points, weights, kShards);

  constexpr size_t kReaders = 3;
  constexpr size_t kWriterOps = 60;
  constexpr size_t kReaderOps = 40;
  // Per thread: every admitted mutation with the sequence it was admitted
  // at, every query with the sequence it executed at.
  std::vector<std::vector<RecordedOp>> history(kShards + kReaders);
  std::atomic<int> failures{0};

  std::vector<std::thread> threads;
  for (size_t w = 0; w < kShards; ++w) {
    threads.emplace_back([&, w] {
      OpStream stream(500 + w, {.dim = kDim,
                                .mix = {.insert_point = 30,
                                        .insert_weight = 50,
                                        .delete_weight = 20},
                                .live_points = points.size(),
                                .live_weights = weights.size()});
      for (size_t i = 0; i < kWriterOps; ++i) {
        RecordedOp m;
        m.op = stream.Next();
        // Live id 0 is valid as long as any weight is alive; which
        // weight that is at application time is decided by the
        // admission order the sequence number captures.
        m.op.id = 0;
        m.result = ApplyOp(*sharded, m.op, &m.version);
        if (m.result.status.ok()) {
          history[w].push_back(std::move(m));
        } else {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      OpStream stream(900 + r, {.dim = kDim,
                                .mix = {.rtk = 50, .rkr = 50},
                                .max_k = 6});
      for (size_t i = 0; i < kReaderOps; ++i) {
        RecordedOp obs;
        obs.op = stream.Next();
        obs.result = ApplyOp(*sharded, obs.op, &obs.version);
        history[kShards + r].push_back(std::move(obs));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Serial replay. Admission assigned each successful mutation a unique,
  // dense sequence number, which reconstructs the exact global order.
  std::vector<RecordedOp> all;
  for (const auto& per_thread : history) {
    all.insert(all.end(), per_thread.begin(), per_thread.end());
  }
  DynamicGirIndex replay = BuildSingle(points, weights);
  const Status s = CheckHistory(replay, std::move(all), 500);
  EXPECT_TRUE(s.ok()) << s.ToString();
}

// ---- GIRSHD01 persistence ---------------------------------------------------

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(ShardedIndexIoTest, RoundTripsAndContinuesMutatingBitIdentically) {
  const size_t kDim = 4;
  const Dataset points = MakePoints(100, kDim, 81);
  const Dataset weights = MakeWeights(90, kDim, 82);
  auto original = BuildSharded(points, weights, 3);

  // Mutate before saving so the envelope carries deltas, tombstones and a
  // non-trivial round-robin cursor.
  std::mt19937_64 rng(83);
  for (int i = 0; i < 25; ++i) {
    const std::vector<double> w = RandomWeightRow(rng, kDim);
    ASSERT_TRUE(original->InsertWeight(ConstRow(w.data(), kDim)).ok());
  }
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(original->DeleteWeight(static_cast<VectorId>(i * 3)).ok());
    ASSERT_TRUE(original->DeletePoint(static_cast<VectorId>(i)).ok());
  }

  const std::string path = TempPath("sharded_roundtrip.bin");
  ASSERT_TRUE(SaveShardedIndex(path, *original).ok());
  for (const bool background_compact : {false, true}) {
    SCOPED_TRACE(background_compact);
    auto loaded_r = LoadShardedIndex(path, background_compact);
    ASSERT_TRUE(loaded_r.ok()) << loaded_r.status().ToString();
    ShardedGirIndex& loaded = *loaded_r.value();
    EXPECT_EQ(loaded.shard_count(), 3u);
    EXPECT_EQ(loaded.live_point_count(), original->live_point_count());
    EXPECT_EQ(loaded.live_weight_count(), original->live_weight_count());
    EXPECT_EQ(loaded.sequence(), original->sequence());
    EXPECT_EQ(loaded.weight_insert_counter(),
              original->weight_insert_counter());
    EXPECT_EQ(loaded.WeightOwners(), original->WeightOwners());

    // Same answers now, and same answers after identical continued
    // mutations — the persisted round-robin cursor keeps later inserts
    // routing to the same shards.
    std::mt19937_64 cont(84);
    for (int i = 0; i < 10; ++i) {
      const std::vector<double> q = RandomPointRow(cont, kDim);
      const ConstRow row(q.data(), q.size());
      EXPECT_EQ(loaded.ReverseTopK(row, 5), original->ReverseTopK(row, 5));
      EXPECT_EQ(loaded.ReverseKRanks(row, 5), original->ReverseKRanks(row, 5));
    }
  }

  // Continue mutating one loaded copy in lockstep with the original.
  auto continued_r = LoadShardedIndex(path);
  ASSERT_TRUE(continued_r.ok());
  ShardedGirIndex& continued = *continued_r.value();
  std::mt19937_64 cont(85);
  for (int i = 0; i < 20; ++i) {
    const std::vector<double> w = RandomWeightRow(cont, kDim);
    ASSERT_TRUE(original->InsertWeight(ConstRow(w.data(), kDim)).ok());
    ASSERT_TRUE(continued.InsertWeight(ConstRow(w.data(), kDim)).ok());
  }
  ASSERT_TRUE(original->DeleteWeight(5).ok());
  ASSERT_TRUE(continued.DeleteWeight(5).ok());
  const std::vector<double> q = RandomPointRow(cont, kDim);
  const ConstRow row(q.data(), q.size());
  EXPECT_EQ(continued.ReverseKRanks(row, 7), original->ReverseKRanks(row, 7));
  EXPECT_EQ(continued.WeightOwners(), original->WeightOwners());
}

TEST(ShardedIndexIoTest, HostileEnvelopesAreRejectedNotTrusted) {
  const size_t kDim = 3;
  const Dataset points = MakePoints(40, kDim, 91);
  const Dataset weights = MakeWeights(30, kDim, 92);
  auto index = BuildSharded(points, weights, 2);
  const std::string path = TempPath("sharded_hostile.bin");
  ASSERT_TRUE(SaveShardedIndex(path, *index).ok());
  const std::string good = ReadFileBytes(path);
  ASSERT_GT(good.size(), 64u);
  const std::string hostile = TempPath("sharded_hostile_mut.bin");

  const auto expect_rejected = [&](const std::string& bytes,
                                   const char* what) {
    WriteFileBytes(hostile, bytes);
    auto loaded = LoadShardedIndex(hostile);
    EXPECT_FALSE(loaded.ok()) << what;
  };

  // Bad magic.
  {
    std::string bytes = good;
    bytes[0] = 'X';
    expect_rejected(bytes, "bad magic");
  }
  // Truncated header.
  expect_rejected(good.substr(0, 20), "truncated header");
  // Shard count zero and beyond the cap.
  {
    std::string bytes = good;
    bytes[8] = 0;
    bytes[9] = 0;
    bytes[10] = 0;
    bytes[11] = 0;
    expect_rejected(bytes, "zero shards");
    bytes[8] = '\xff';
    bytes[9] = '\xff';
    expect_rejected(bytes, "shard count beyond the cap");
  }
  // Header layout: magic[0,8) shards[8,12) dim[12,16) sequence[16,24)
  // insert_counter[24,32) live_points[32,40) num_weights[40,48) owner[48..).
  // Allocation-bomb owner map: live weight count far beyond the file.
  {
    std::string bytes = good;
    for (int i = 0; i < 8; ++i) bytes[40 + i] = '\x7f';
    expect_rejected(bytes, "owner map exceeds the file");
  }
  // Owner id pointing at a shard that does not exist.
  {
    std::string bytes = good;
    bytes[48] = '\x09';  // owner[0]: valid ids here are 0 and 1
    expect_rejected(bytes, "owner out of range");
  }
  // Insert counter below the live count breaks round-robin replay.
  {
    std::string bytes = good;
    for (int i = 0; i < 8; ++i) bytes[24 + i] = 0;
    expect_rejected(bytes, "insert counter below the live count");
  }
  // Corrupted embedded shard blob (flip a byte inside the first blob's
  // GIRDYN01 magic).
  {
    std::string bytes = good;
    const size_t blob_magic = bytes.find("GIRDYN01");
    ASSERT_NE(blob_magic, std::string::npos);
    bytes[blob_magic] = 'Z';
    expect_rejected(bytes, "corrupt shard blob");
  }
  // Trailing garbage after the last blob.
  expect_rejected(good + "JUNK", "trailing bytes");
  // Truncated mid-blob.
  expect_rejected(good.substr(0, good.size() - 9), "truncated blob");

  // The dynamic loader must not accept a sharded envelope, nor the
  // sharded loader a plain GIRDYN01 file.
  EXPECT_FALSE(LoadDynamicIndex(path).ok());
  const std::string dyn_path = TempPath("sharded_hostile_dyn.bin");
  DynamicGirIndex single = BuildSingle(points, weights);
  ASSERT_TRUE(SaveDynamicIndex(dyn_path, single).ok());
  EXPECT_FALSE(LoadShardedIndex(dyn_path).ok());

  // And the untouched file still loads.
  EXPECT_TRUE(LoadShardedIndex(path).ok());
}

TEST(ShardedIndexIoTest, FromPartsRejectsInconsistentShards) {
  const size_t kDim = 3;
  const Dataset points = MakePoints(40, kDim, 95);
  const Dataset weights = MakeWeights(20, kDim, 96);

  const auto make_parts = [&](size_t n) {
    std::vector<std::unique_ptr<DynamicGirIndex>> parts;
    std::vector<Dataset> slices(n, Dataset(kDim));
    for (size_t i = 0; i < weights.size(); ++i) {
      slices[i % n].AppendUnchecked(weights.row(i));
    }
    for (size_t s = 0; s < n; ++s) {
      auto built = DynamicGirIndex::Build(points, slices[s],
                                          DynamicIndexOptions{});
      EXPECT_TRUE(built.ok());
      parts.push_back(
          std::make_unique<DynamicGirIndex>(std::move(built).value()));
    }
    return parts;
  };
  const auto owners = [&](size_t n) {
    std::vector<uint32_t> owner(weights.size());
    for (size_t i = 0; i < owner.size(); ++i) {
      owner[i] = static_cast<uint32_t>(i % n);
    }
    return owner;
  };
  ShardedIndexOptions options;
  options.shards = 2;

  // Shard count disagreeing with the options.
  EXPECT_FALSE(ShardedGirIndex::FromParts(options, make_parts(3), owners(3),
                                          0, weights.size())
                   .ok());
  // Owner histogram disagreeing with the per-shard live counts.
  {
    std::vector<uint32_t> owner = owners(2);
    owner[0] = 1;
    EXPECT_FALSE(ShardedGirIndex::FromParts(options, make_parts(2),
                                            std::move(owner), 0,
                                            weights.size())
                     .ok());
  }
  // Insert counter below the live weight count.
  EXPECT_FALSE(ShardedGirIndex::FromParts(options, make_parts(2), owners(2),
                                          0, weights.size() - 1)
                   .ok());
  // A consistent reassembly works and answers like a fresh build.
  auto ok = ShardedGirIndex::FromParts(options, make_parts(2), owners(2), 0,
                                       weights.size());
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  DynamicGirIndex single = BuildSingle(points, weights);
  std::mt19937_64 rng(97);
  const std::vector<double> q = RandomPointRow(rng, kDim);
  const ConstRow row(q.data(), q.size());
  EXPECT_EQ(ok.value()->ReverseKRanks(row, 5), single.ReverseKRanks(row, 5));
}

}  // namespace
}  // namespace gir
