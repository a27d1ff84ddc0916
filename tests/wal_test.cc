// Tests of the durability layer (DESIGN.md §17): the GIRWAL01 write-ahead
// log (io/wal.h), atomic file replacement (io/atomic_file.h), and the
// sharded router's WAL attach / replay / checkpoint / background-compaction
// machinery (grid/sharded_index.h).
//
// The two records-vs-tail distinctions this suite pins are the crash
// contract: a failing record that extends to end-of-file is a torn tail
// from a crash mid-append and recovery truncates-and-continues; a failing
// record with bytes after it means acknowledged history is damaged and
// recovery refuses with Status::Corruption. crash_recovery_test.cc drives
// the same machinery end-to-end through a SIGKILL'd gir_serve process.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util/op_stream.h"
#include "data/generators.h"
#include "data/weights.h"
#include "grid/dynamic_index.h"
#include "grid/index_io.h"
#include "grid/sharded_index.h"
#include "io/atomic_file.h"
#include "io/wal.h"

namespace gir {
namespace {

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("gir_wal_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }
  std::string WalDir() const { return (dir_ / "wal").string(); }

  static std::string ReadBytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }
  static void WriteBytes(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good()) << path;
  }

  std::filesystem::path dir_;
};

WalRecord InsertPointRecord(uint64_t seq, std::vector<double> row) {
  WalRecord r;
  r.seq = seq;
  r.op = WalOp::kInsertPoint;
  r.row = std::move(row);
  return r;
}

WalRecord DeleteWeightRecord(uint64_t seq, uint64_t id) {
  WalRecord r;
  r.seq = seq;
  r.op = WalOp::kDeleteWeight;
  r.id = id;
  return r;
}

// ---- GIRWAL01 file format ----------------------------------------------

TEST_F(WalTest, AppendRoundTripsEveryOpKind) {
  auto wal = ShardedWal::Open(WalDir(), 2, 0, FsyncPolicy::kAlways);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();

  // Broadcast ops land in every lane; owner-routed ops in one.
  ASSERT_TRUE(wal.value()->AppendAll(InsertPointRecord(1, {1.0, 2.0})).ok());
  WalRecord del_point;
  del_point.seq = 2;
  del_point.op = WalOp::kDeletePoint;
  del_point.id = 7;
  ASSERT_TRUE(wal.value()->AppendAll(del_point).ok());
  WalRecord ins_weight;
  ins_weight.seq = 3;
  ins_weight.op = WalOp::kInsertWeight;
  ins_weight.row = {0.25, 0.75};
  ASSERT_TRUE(wal.value()->Append(1, ins_weight).ok());
  ASSERT_TRUE(wal.value()->Append(0, DeleteWeightRecord(4, 9)).ok());
  WalRecord compact;
  compact.seq = 5;
  compact.op = WalOp::kCompact;
  ASSERT_TRUE(wal.value()->AppendAll(compact).ok());
  WalRecord marker;
  marker.seq = 6;
  marker.op = WalOp::kCompactShard;
  marker.shard = 1;
  ASSERT_TRUE(wal.value()->Append(1, marker).ok());

  auto lane0 = ReadWalFile(WalDir() + "/" + WalFileName(0));
  ASSERT_TRUE(lane0.ok()) << lane0.status().ToString();
  EXPECT_EQ(lane0.value().shard_index, 0u);
  EXPECT_EQ(lane0.value().shard_count, 2u);
  EXPECT_EQ(lane0.value().snapshot_sequence, 0u);
  EXPECT_FALSE(lane0.value().torn_tail);
  ASSERT_EQ(lane0.value().records.size(), 4u);  // 1, 2, 4, 5
  EXPECT_EQ(lane0.value().records[2].op, WalOp::kDeleteWeight);
  EXPECT_EQ(lane0.value().records[2].id, 9u);

  auto lane1 = ReadWalFile(WalDir() + "/" + WalFileName(1));
  ASSERT_TRUE(lane1.ok());
  ASSERT_EQ(lane1.value().records.size(), 5u);  // 1, 2, 3, 5, 6
  EXPECT_EQ(lane1.value().records[2].op, WalOp::kInsertWeight);
  EXPECT_EQ(lane1.value().records[2].row, (std::vector<double>{0.25, 0.75}));
  EXPECT_EQ(lane1.value().records[4].op, WalOp::kCompactShard);
  EXPECT_EQ(lane1.value().records[4].shard, 1u);

  // The directory merge collapses the broadcast duplicates back to the
  // admitted sequence: exactly one record per sequence number.
  auto merged = ReadWalDir(WalDir());
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  ASSERT_EQ(merged.value().records.size(), 6u);
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(merged.value().records[i].seq, i + 1);
  }
  EXPECT_EQ(merged.value().max_seq, 6u);
  EXPECT_EQ(merged.value().records[0].row, (std::vector<double>{1.0, 2.0}));

  const WalStats stats = wal.value()->stats();
  EXPECT_EQ(stats.records, 9u);  // 3 broadcasts x 2 lanes + 3 singles
  EXPECT_EQ(stats.syncs, 9u);    // kAlways: one fdatasync per append
  EXPECT_GT(stats.bytes, 0u);
}

TEST_F(WalTest, MissingFileIsNotFoundAndMissingDirIsEmpty) {
  EXPECT_EQ(ReadWalFile(Path("nope.log")).status().code(),
            StatusCode::kNotFound);
  auto merged = ReadWalDir(Path("no-such-dir"));
  ASSERT_TRUE(merged.ok());
  EXPECT_TRUE(merged.value().records.empty());
  EXPECT_TRUE(merged.value().files.empty());
}

TEST_F(WalTest, ShortOrMismatchedHeaderIsCorruption) {
  WriteBytes(Path("short.log"), "GIRWAL0");  // shorter than the header
  EXPECT_EQ(ReadWalFile(Path("short.log")).status().code(),
            StatusCode::kCorruption);
  std::string bad(24, '\0');
  bad.replace(0, 8, "GIRNET01");  // wrong magic, right length
  WriteBytes(Path("magic.log"), bad);
  EXPECT_EQ(ReadWalFile(Path("magic.log")).status().code(),
            StatusCode::kCorruption);
}

TEST_F(WalTest, TornTailTruncatesAndContinues) {
  {
    auto wal = ShardedWal::Open(WalDir(), 1, 0, FsyncPolicy::kNever);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal.value()->AppendAll(InsertPointRecord(1, {1.0})).ok());
    ASSERT_TRUE(wal.value()->AppendAll(InsertPointRecord(2, {2.0})).ok());
  }
  const std::string path = WalDir() + "/" + WalFileName(0);
  const std::string intact = ReadBytes(path);

  // Crash mid-append: only a prefix of the third record reached the disk.
  const std::string frame = EncodeWalRecord(InsertPointRecord(3, {3.0}));
  for (size_t cut = 1; cut < frame.size(); ++cut) {
    WriteBytes(path, intact + frame.substr(0, cut));
    auto state = ReadWalFile(path);
    ASSERT_TRUE(state.ok()) << "cut=" << cut << ": "
                            << state.status().ToString();
    EXPECT_TRUE(state.value().torn_tail) << "cut=" << cut;
    ASSERT_EQ(state.value().records.size(), 2u) << "cut=" << cut;
    EXPECT_EQ(state.value().valid_bytes, intact.size());
  }

  // A complete final record whose CRC fails is the same crash shape
  // (payload half-written, length already durable): torn, not corrupt.
  std::string flipped = intact + frame;
  flipped.back() = static_cast<char>(flipped.back() ^ 0x01);
  WriteBytes(path, flipped);
  auto state = ReadWalFile(path);
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  EXPECT_TRUE(state.value().torn_tail);
  EXPECT_EQ(state.value().records.size(), 2u);

  // Re-opening truncates the tail away and appends resume cleanly after
  // the valid prefix.
  {
    auto wal = ShardedWal::Open(WalDir(), 1, 0, FsyncPolicy::kNever);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    EXPECT_EQ(std::filesystem::file_size(path), intact.size());
    ASSERT_TRUE(wal.value()->AppendAll(InsertPointRecord(3, {3.5})).ok());
  }
  auto resumed = ReadWalFile(path);
  ASSERT_TRUE(resumed.ok());
  EXPECT_FALSE(resumed.value().torn_tail);
  ASSERT_EQ(resumed.value().records.size(), 3u);
  EXPECT_EQ(resumed.value().records[2].row, (std::vector<double>{3.5}));
}

TEST_F(WalTest, CorruptionBeforeTheTailIsHardCorruption) {
  {
    auto wal = ShardedWal::Open(WalDir(), 1, 0, FsyncPolicy::kNever);
    ASSERT_TRUE(wal.ok());
    for (uint64_t seq = 1; seq <= 3; ++seq) {
      ASSERT_TRUE(wal.value()
                      ->AppendAll(InsertPointRecord(seq, {double(seq)}))
                      .ok());
    }
  }
  const std::string path = WalDir() + "/" + WalFileName(0);
  const std::string intact = ReadBytes(path);

  // Flip one payload byte of the FIRST record: acknowledged history is
  // damaged and there are records after it — recovery must refuse rather
  // than silently truncate two durable mutations away.
  std::string corrupt = intact;
  corrupt[24 + 8 + 2] = static_cast<char>(corrupt[24 + 8 + 2] ^ 0x40);
  WriteBytes(path, corrupt);
  EXPECT_EQ(ReadWalFile(path).status().code(), StatusCode::kCorruption);
  EXPECT_EQ(ReadWalDir(WalDir()).status().code(), StatusCode::kCorruption);
  // Open refuses too: it never resumes a log whose middle is damaged.
  EXPECT_EQ(ShardedWal::Open(WalDir(), 1, 0, FsyncPolicy::kNever)
                .status()
                .code(),
            StatusCode::kCorruption);
}

TEST_F(WalTest, NonIncreasingSequenceIsCorruption) {
  auto wal = ShardedWal::Open(WalDir(), 1, 0, FsyncPolicy::kNever);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal.value()->AppendAll(InsertPointRecord(5, {1.0})).ok());
  ASSERT_TRUE(wal.value()->AppendAll(InsertPointRecord(5, {2.0})).ok());
  ASSERT_TRUE(wal.value()->AppendAll(InsertPointRecord(6, {3.0})).ok());
  EXPECT_EQ(ReadWalFile(WalDir() + "/" + WalFileName(0)).status().code(),
            StatusCode::kCorruption);
}

TEST_F(WalTest, LanesDisagreeingOnASequenceAreCorruption) {
  auto wal = ShardedWal::Open(WalDir(), 2, 0, FsyncPolicy::kNever);
  ASSERT_TRUE(wal.ok());
  // A broadcast record must be byte-identical across lanes; two different
  // mutations claiming the same admission sequence cannot both be real.
  ASSERT_TRUE(wal.value()->Append(0, InsertPointRecord(1, {1.0})).ok());
  ASSERT_TRUE(wal.value()->Append(1, InsertPointRecord(1, {9.0})).ok());
  EXPECT_EQ(ReadWalDir(WalDir()).status().code(), StatusCode::kCorruption);
}

TEST_F(WalTest, FilesDisagreeingOnShardCountAreCorruption) {
  {
    auto wal = ShardedWal::Open(WalDir(), 1, 0, FsyncPolicy::kNever);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal.value()->AppendAll(InsertPointRecord(1, {1.0})).ok());
  }
  // Handcraft a second lane claiming a two-shard layout.
  std::string header;
  header.append("GIRWAL01", 8);
  const uint32_t shard = 1, count = 2;
  const uint64_t snap = 0;
  header.append(reinterpret_cast<const char*>(&shard), 4);
  header.append(reinterpret_cast<const char*>(&count), 4);
  header.append(reinterpret_cast<const char*>(&snap), 8);
  WriteBytes(WalDir() + "/" + WalFileName(1), header);
  EXPECT_EQ(ReadWalDir(WalDir()).status().code(), StatusCode::kCorruption);
  // Open validates the lanes it resumes (the boot path runs ReadWalDir
  // first, which is where whole-directory consistency is enforced): asked
  // for the two-shard layout here, lane 0's one-shard header must refuse.
  EXPECT_EQ(ShardedWal::Open(WalDir(), 2, 0, FsyncPolicy::kNever)
                .status()
                .code(),
            StatusCode::kCorruption);
}

TEST_F(WalTest, RotateStartsFreshLogsStampedWithTheSnapshotSequence) {
  auto wal = ShardedWal::Open(WalDir(), 2, 0, FsyncPolicy::kNever);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal.value()->AppendAll(InsertPointRecord(1, {1.0})).ok());
  ASSERT_TRUE(wal.value()->AppendAll(InsertPointRecord(2, {2.0})).ok());
  ASSERT_TRUE(wal.value()->Rotate(2).ok());

  for (uint32_t s = 0; s < 2; ++s) {
    auto state = ReadWalFile(WalDir() + "/" + WalFileName(s));
    ASSERT_TRUE(state.ok());
    EXPECT_TRUE(state.value().records.empty());
    EXPECT_EQ(state.value().snapshot_sequence, 2u);
  }
  EXPECT_EQ(wal.value()->stats().rotations, 1u);
  EXPECT_EQ(wal.value()->stats().snapshot_sequence, 2u);

  // Appends continue into the fresh logs.
  ASSERT_TRUE(wal.value()->AppendAll(InsertPointRecord(3, {3.0})).ok());
  auto merged = ReadWalDir(WalDir());
  ASSERT_TRUE(merged.ok());
  ASSERT_EQ(merged.value().records.size(), 1u);
  EXPECT_EQ(merged.value().records[0].seq, 3u);
}

// ---- Atomic file replacement (io/atomic_file.h) ------------------------

class AtomicFileTest : public WalTest {};

TEST_F(AtomicFileTest, FailedWriteFnLeavesOldContentsAndNoTemp) {
  const std::string path = Path("target.bin");
  WriteBytes(path, "old contents");
  const Status failed = AtomicWriteFile(path, [](std::ostream& out) {
    out << "half a new fi";
    return Status::IOError("injected failure");
  });
  EXPECT_EQ(failed.code(), StatusCode::kIOError);
  EXPECT_EQ(ReadBytes(path), "old contents");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST_F(AtomicFileTest, StreamFailureSurfacesAsIOError) {
  const std::string path = Path("target.bin");
  WriteBytes(path, "old contents");
  // The writer claims success but the stream is broken — the short write
  // must still surface, not be swallowed by a happy return.
  const Status failed = AtomicWriteFile(path, [](std::ostream& out) {
    out << "partial";
    out.setstate(std::ios::badbit);
    return Status::OK();
  });
  EXPECT_EQ(failed.code(), StatusCode::kIOError);
  EXPECT_EQ(ReadBytes(path), "old contents");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST_F(AtomicFileTest, ObstructedTempPathFailsWithoutTouchingTheTarget) {
  const std::string path = Path("target.bin");
  WriteBytes(path, "old contents");
  std::filesystem::create_directories(path + ".tmp");
  const Status failed = AtomicWriteFile(path, [](std::ostream& out) {
    out << "new contents";
    return Status::OK();
  });
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(ReadBytes(path), "old contents");
  std::filesystem::remove_all(path + ".tmp");

  const Status ok = AtomicWriteFile(path, [](std::ostream& out) {
    out << "new contents";
    return Status::OK();
  });
  ASSERT_TRUE(ok.ok()) << ok.ToString();
  EXPECT_EQ(ReadBytes(path), "new contents");
}

TEST_F(AtomicFileTest, InjectedKernelWriteFailureLeavesOldContents) {
  // RLIMIT_FSIZE caps regular-file writes: anything past the cap fails
  // with EFBIG (SIGXFSZ ignored), which is exactly the short-write shape
  // a full disk produces. The old contents must survive it.
  const std::string path = Path("target.bin");
  WriteBytes(path, "old contents");

  struct rlimit saved;
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
  void (*prev)(int) = ::signal(SIGXFSZ, SIG_IGN);
  struct rlimit tiny = saved;
  tiny.rlim_cur = 64;
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &tiny), 0);

  const Status failed = AtomicWriteFile(path, [](std::ostream& out) {
    const std::string block(4096, 'x');
    for (int i = 0; i < 64; ++i) out.write(block.data(), block.size());
    return Status::OK();
  });

  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &saved), 0);
  ::signal(SIGXFSZ, prev);

  EXPECT_EQ(failed.code(), StatusCode::kIOError);
  EXPECT_EQ(ReadBytes(path), "old contents");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST_F(AtomicFileTest, SaveShardedIndexFailureKeepsThePreviousSnapshot) {
  const Dataset points =
      GeneratePoints(PointDistribution::kUniform, 40, 3, 11);
  const Dataset weights =
      GenerateWeights(WeightDistribution::kUniform, 50, 3, 12);
  ShardedIndexOptions options;
  options.shards = 2;
  auto index = ShardedGirIndex::Build(points, weights, options);
  ASSERT_TRUE(index.ok());

  const std::string path = Path("snapshot.gir");
  ASSERT_TRUE(SaveShardedIndex(path, *index.value()).ok());
  const std::string before = ReadBytes(path);

  ASSERT_TRUE(index.value()->InsertPoint(points.row(0)).ok());
  std::filesystem::create_directories(path + ".tmp");
  EXPECT_FALSE(SaveShardedIndex(path, *index.value()).ok());
  std::filesystem::remove_all(path + ".tmp");

  // The failed save changed nothing: the old snapshot still loads.
  EXPECT_EQ(ReadBytes(path), before);
  auto reloaded = LoadShardedIndex(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded.value()->live_point_count(), 40u);
}

// ---- Router durability: attach, replay, checkpoint ---------------------

class ShardedWalTest : public WalTest {
 protected:
  static constexpr size_t kDim = 4;

  Dataset BasePoints() const {
    return GeneratePoints(PointDistribution::kUniform, 60, kDim, 21);
  }
  Dataset BaseWeights() const {
    return GenerateWeights(WeightDistribution::kUniform, 80, kDim, 22);
  }

  std::unique_ptr<ShardedGirIndex> BuildRouter(size_t shards,
                                               bool background = false) {
    ShardedIndexOptions options;
    options.shards = shards;
    options.background_compact = background;
    auto index = ShardedGirIndex::Build(BasePoints(), BaseWeights(), options);
    EXPECT_TRUE(index.ok()) << index.status().ToString();
    return std::move(index).value();
  }

  void Attach(ShardedGirIndex& index, uint64_t snapshot_seq = 0) {
    auto wal =
        ShardedWal::Open(WalDir(), static_cast<uint32_t>(index.shard_count()),
                         snapshot_seq, FsyncPolicy::kNever);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    ASSERT_TRUE(index.AttachWal(std::move(wal).value()).ok());
  }

  /// A deterministic churn script: inserts, deletes, one explicit
  /// compaction. Returns the probe queries used for bit-identity checks.
  Dataset Churn(ShardedGirIndex& index, uint64_t seed, size_t ops = 120) {
    OpStream stream(seed, {.dim = kDim,
                           .mix = {.insert_point = 30, .delete_point = 25,
                                   .insert_weight = 25, .delete_weight = 20},
                           .live_points = index.live_point_count(),
                           .live_weights = index.live_weight_count(),
                           .min_live_points = 20,
                           .min_live_weights = 20});
    for (size_t i = 0; i < ops; ++i) {
      const Op op = stream.Next();
      const Status s = ApplyOp(index, op).status;
      EXPECT_TRUE(s.ok()) << OpKindName(op.kind) << " " << s.ToString();
      if (i == ops / 2) (void)index.Compact();
    }
    return GeneratePoints(PointDistribution::kUniform, 12, kDim, seed + 99);
  }

  static void ExpectBitIdentical(const ShardedGirIndex& got,
                                 const ShardedGirIndex& want,
                                 const Dataset& probes) {
    ASSERT_EQ(got.sequence(), want.sequence());
    ASSERT_EQ(got.live_point_count(), want.live_point_count());
    ASSERT_EQ(got.live_weight_count(), want.live_weight_count());
    for (size_t q = 0; q < probes.size(); ++q) {
      EXPECT_EQ(got.ReverseKRanks(probes.row(q), 5),
                want.ReverseKRanks(probes.row(q), 5))
          << "probe " << q;
    }
    // Generation counters converge too — replayed compactions (explicit,
    // auto, and background markers) must land on the same counts.
    const auto sa = got.ShardStats();
    const auto sb = want.ShardStats();
    ASSERT_EQ(sa.size(), sb.size());
    for (size_t s = 0; s < sb.size(); ++s) {
      EXPECT_EQ(sa[s].generation, sb[s].generation) << "shard " << s;
      EXPECT_EQ(sa[s].live_weights, sb[s].live_weights) << "shard " << s;
    }
  }
};

TEST_F(ShardedWalTest, AttachValidatesShardCountAndSingleAttachment) {
  auto index = BuildRouter(2);
  auto wrong = ShardedWal::Open(Path("wrong"), 3, 0, FsyncPolicy::kNever);
  ASSERT_TRUE(wrong.ok());
  EXPECT_EQ(index->AttachWal(std::move(wrong).value()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(index->AttachWal(nullptr).code(), StatusCode::kInvalidArgument);

  Attach(*index);
  auto second = ShardedWal::Open(Path("second"), 2, 0, FsyncPolicy::kNever);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(index->AttachWal(std::move(second).value()).ok());
}

TEST_F(ShardedWalTest, EveryAdmittedMutationIsLoggedBeforeItIsApplied) {
  auto index = BuildRouter(2);
  Attach(*index);
  Churn(*index, 31);
  // Rejected mutations consume no sequence and leave no record, so the
  // log's merged suffix is exactly the admitted history.
  auto merged = ReadWalDir(WalDir());
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged.value().max_seq, index->sequence());
  EXPECT_EQ(merged.value().records.size(), index->sequence());
  EXPECT_EQ(index->wal()->stats().records,
            merged.value().files[0].records.size() +
                merged.value().files[1].records.size());
}

TEST_F(ShardedWalTest, ReplayRecoversBitIdenticalState) {
  for (const uint64_t seed : {37u, 38u}) {
    SCOPED_TRACE(seed);
    std::filesystem::remove_all(WalDir());
    auto live = BuildRouter(3);
    Attach(*live);
    const Dataset probes = Churn(*live, seed);

    auto merged = ReadWalDir(WalDir());
    ASSERT_TRUE(merged.ok());
    auto recovered = BuildRouter(3);
    ASSERT_TRUE(recovered->ReplayWal(merged.value().records).ok());
    ExpectBitIdentical(*recovered, *live, probes);
  }
}

TEST_F(ShardedWalTest, ReplaySkipsRecordsTheSnapshotAlreadyContains) {
  auto live = BuildRouter(2);
  Attach(*live);
  const Dataset probes = Churn(*live, 41);

  // Save a snapshot mid-history, then replay the FULL log on top of it:
  // records at or below the snapshot's sequence must be skipped, the
  // suffix applied.
  const std::string snap = Path("snapshot.gir");
  ASSERT_TRUE(SaveShardedIndex(snap, *live).ok());
  Churn(*live, 43, 40);

  auto merged = ReadWalDir(WalDir());
  ASSERT_TRUE(merged.ok());
  auto recovered = LoadShardedIndex(snap);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_TRUE(recovered.value()->ReplayWal(merged.value().records).ok());
  ExpectBitIdentical(*recovered.value(), *live, probes);
}

TEST_F(ShardedWalTest, ReplaySequenceGapIsCorruption) {
  auto index = BuildRouter(2);
  std::vector<WalRecord> records;
  records.push_back(InsertPointRecord(1, {1.0, 2.0, 3.0, 4.0}));
  records.push_back(InsertPointRecord(3, {1.0, 2.0, 3.0, 4.0}));  // gap: 2
  EXPECT_EQ(index->ReplayWal(records).code(), StatusCode::kCorruption);
}

TEST_F(ShardedWalTest, ReplayRejectedOpIsCorruption) {
  auto index = BuildRouter(2);
  std::vector<WalRecord> records;
  // A dimension-mismatched insert cannot have been admitted by the
  // pre-crash process; replay must refuse, not skip it.
  records.push_back(InsertPointRecord(1, {1.0}));
  EXPECT_EQ(index->ReplayWal(records).code(), StatusCode::kCorruption);
}

TEST_F(ShardedWalTest, CheckpointRotatesTheLogAndRecoveryUsesTheSnapshot) {
  auto live = BuildRouter(2);
  Attach(*live);
  const Dataset probes = Churn(*live, 47);
  const uint64_t pre_checkpoint_seq = live->sequence();

  const std::string snap = Path("snapshot.gir");
  ASSERT_TRUE(
      live->Checkpoint([&] { return SaveShardedIndex(snap, *live); }).ok());
  EXPECT_EQ(live->wal()->stats().rotations, 1u);
  EXPECT_EQ(live->wal()->stats().snapshot_sequence, pre_checkpoint_seq);

  // Post-checkpoint mutations land in the rotated log only.
  Churn(*live, 53, 30);
  auto merged = ReadWalDir(WalDir());
  ASSERT_TRUE(merged.ok());
  for (const WalRecord& r : merged.value().records) {
    EXPECT_GT(r.seq, pre_checkpoint_seq);
  }

  // Boot path: snapshot + rotated suffix reproduces the live state.
  auto recovered = LoadShardedIndex(snap);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value()->sequence(), pre_checkpoint_seq);
  ASSERT_TRUE(recovered.value()->ReplayWal(merged.value().records).ok());
  ExpectBitIdentical(*recovered.value(), *live, probes);

  // A failing snapshot save aborts the checkpoint without rotating.
  const Status failed = live->Checkpoint(
      [] { return Status::IOError("injected snapshot failure"); });
  EXPECT_EQ(failed.code(), StatusCode::kIOError);
  EXPECT_EQ(live->wal()->stats().rotations, 1u);
  // And the router still admits mutations afterwards.
  EXPECT_TRUE(live->Compact().ok());
}

TEST_F(ShardedWalTest, BackgroundCompactionMatchesTheSingleIndexOracle) {
  // Heavy delete churn drives every shard across the compaction
  // threshold; the background path (marker + off-lane rebuild + install)
  // must stay query-for-query bit-identical to a single DynamicGirIndex
  // fed the same stream, and its markers must replay to the same state.
  auto live = BuildRouter(2, /*background=*/true);
  Attach(*live);

  DynamicIndexOptions single_options;
  auto single =
      DynamicGirIndex::Build(BasePoints(), BaseWeights(), single_options);
  ASSERT_TRUE(single.ok());

  OpStream stream(61, {.dim = kDim,
                       .mix = {.insert_point = 40, .delete_point = 60},
                       .live_points = live->live_point_count(),
                       .live_weights = live->live_weight_count(),
                       .min_live_points = 20});
  IndexTarget target(*live);
  OracleChecker checker(single.value(), target, stream.seed());
  const Dataset probes = GeneratePoints(PointDistribution::kUniform, 8, kDim, 62);
  for (size_t i = 0; i < 300; ++i) {
    Status s = checker.Step(stream.Next());
    if (s.ok() && i % 50 == 49) {
      s = checker.CheckQueries(OpKind::kRkr, probes, 5);
    }
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
  live->WaitBackgroundIdle();

  uint64_t installs = 0;
  for (const auto& s : live->ShardStats()) installs += s.bg_compactions;
  EXPECT_GT(installs, 0u) << "churn never crossed the compaction threshold";

  // The log (with its kCompactShard markers) replays to the live state,
  // generations included.
  auto merged = ReadWalDir(WalDir());
  ASSERT_TRUE(merged.ok());
  auto recovered = BuildRouter(2, /*background=*/true);
  ASSERT_TRUE(recovered->ReplayWal(merged.value().records).ok());
  ExpectBitIdentical(*recovered, *live, probes);
}

}  // namespace
}  // namespace gir
