// Durability pricing for the write-ahead log (DESIGN.md §17): what does
// logging every admitted mutation — and fsyncing it — cost against the
// in-memory mutation path, and what do a checkpoint and a cold replay
// cost on top?
//
// Four arms over the same seeded mutation script (inserts, deletes, the
// router's own background compactions running throughout):
//
//   no-wal        — the router with no log attached (the PR-6 baseline)
//   wal-never     — GIRWAL01 appends, flushing left to the kernel
//   wal-always    — appends + fdatasync per mutation (the default serving
//                   configuration: an acked mutation is durable)
//   (then)        — one Checkpoint() on the wal-always index, and a full
//                   ReadWalDir + ReplayWal recovery of the wal-never log
//
// The wal-always arm runs a reduced op count: it is fsync-bound by
// design, and the per-op figure converges in a few hundred syncs. Before
// any timing, the recovered index is checked against the live one on a
// probe set — a perf number for a replay that diverges would be noise.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench/bench_common.h"
#include "bench_util/op_stream.h"
#include "grid/dynamic_index.h"
#include "grid/index_io.h"
#include "grid/sharded_index.h"
#include "io/wal.h"

namespace gir {
namespace {

struct Config {
  size_t n;          // base points
  size_t m;          // base weights
  size_t d;
  size_t ops;        // mutation count for no-wal / wal-never
  size_t fsync_ops;  // mutation count for wal-always
};

Config ConfigFor(BenchScale scale) {
  switch (scale) {
    case BenchScale::kSmoke:
      return {400, 400, 4, 1000, 200};
    case BenchScale::kFull:
      return {20000, 20000, 4, 50000, 5000};
    case BenchScale::kQuick:
    default:
      return {4000, 4000, 4, 10000, 1000};
  }
}

[[noreturn]] void Fail(const std::string& why) {
  std::fprintf(stderr, "%s\n", why.c_str());
  std::exit(2);
}

std::unique_ptr<ShardedGirIndex> BuildRouter(const Dataset& points,
                                             const Dataset& weights) {
  ShardedIndexOptions options;
  options.shards = 2;
  options.background_compact = true;
  auto index = ShardedGirIndex::Build(points, weights, options);
  if (!index.ok()) Fail("build failed: " + index.status().ToString());
  return std::move(index).value();
}

/// The seeded mutation script every arm replays: point-heavy churn with
/// enough deletes to keep the background compactor busy.
double RunChurn(ShardedGirIndex& index, const Config& cfg, size_t ops) {
  OpStream churn(73, {.dim = cfg.d,
                      .mix = {.insert_point = 55, .delete_point = 35,
                              .insert_weight = 10},
                      .live_points = cfg.n,
                      .live_weights = cfg.m,
                      .min_live_points = 99});
  return bench::TimeMs([&] {
    for (size_t i = 0; i < ops; ++i) {
      const Status s = ApplyOp(index, churn.Next()).status;
      if (!s.ok()) Fail("churn: " + s.ToString());
    }
    index.WaitBackgroundIdle();
  });
}

void AttachFreshWal(ShardedGirIndex& index, const std::string& dir,
                    FsyncPolicy policy) {
  std::filesystem::remove_all(dir);
  auto wal = ShardedWal::Open(dir, static_cast<uint32_t>(index.shard_count()),
                              0, policy);
  if (!wal.ok() || !index.AttachWal(std::move(wal).value()).ok()) {
    std::fprintf(stderr, "wal attach failed\n");
    std::exit(2);
  }
}

void EmitArm(bench::JsonLog& json, BenchScale scale, const char* arm,
             size_t ops, double wall_ms, const ShardedGirIndex& index) {
  bench::JsonRecord record("wal", scale);
  record.Add("arm", arm)
      .Add("ops", ops)
      .Add("wall_ms", wall_ms)
      .Add("ops_per_sec", ops / (wall_ms / 1000.0))
      .Add("us_per_op", wall_ms * 1000.0 / static_cast<double>(ops));
  if (const ShardedWal* wal = index.wal(); wal != nullptr) {
    const WalStats stats = wal->stats();
    record.Add("wal_records", static_cast<size_t>(stats.records))
        .Add("wal_bytes", static_cast<size_t>(stats.bytes))
        .Add("wal_syncs", static_cast<size_t>(stats.syncs));
  }
  json.Emit(record);
}

int Main(int argc, char** argv) {
  bench::ParseThreadsFlag(&argc, argv);
  const BenchScale scale = ReadBenchScale();
  const Config cfg = ConfigFor(scale);
  bench::PrintHeader("wal",
                     "Durability pricing: WAL append + fsync overhead, "
                     "checkpoint cost, cold replay throughput (DESIGN.md "
                     "SS17)",
                     scale);

  const Dataset points =
      GeneratePoints(PointDistribution::kUniform, cfg.n, cfg.d, 71);
  const Dataset weights =
      GenerateWeights(WeightDistribution::kUniform, cfg.m, cfg.d, 72);
  const std::filesystem::path root =
      std::filesystem::temp_directory_path() /
      ("gir_bench_wal_" + std::to_string(static_cast<unsigned>(::getpid())));
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);

  bench::JsonLog json("wal");

  // Arm 1: no WAL.
  {
    auto index = BuildRouter(points, weights);
    const double ms = RunChurn(*index, cfg, cfg.ops);
    std::printf("no-wal      %8zu ops  %9.1f ms  %9.0f ops/s\n", cfg.ops, ms,
                cfg.ops / (ms / 1000.0));
    EmitArm(json, scale, "no-wal", cfg.ops, ms, *index);
  }

  // Arm 2: WAL, kernel-buffered appends.
  {
    auto index = BuildRouter(points, weights);
    AttachFreshWal(*index, (root / "wal-never").string(),
                   FsyncPolicy::kNever);
    const double ms = RunChurn(*index, cfg, cfg.ops);
    std::printf("wal-never   %8zu ops  %9.1f ms  %9.0f ops/s\n", cfg.ops, ms,
                cfg.ops / (ms / 1000.0));
    EmitArm(json, scale, "wal-never", cfg.ops, ms, *index);

    // Cold replay of that log: the recovery path a crashed server runs.
    auto merged = ReadWalDir((root / "wal-never").string());
    if (!merged.ok()) Fail("wal read failed: " + merged.status().ToString());
    auto recovered = BuildRouter(points, weights);
    const double replay_ms = bench::TimeMs([&] {
      const Status replayed =
          recovered->ReplayWal(merged.value().records);
      if (!replayed.ok()) Fail("replay failed: " + replayed.ToString());
    });
    // Bit-identity gate before pricing the replay.
    const Dataset probes =
        GeneratePoints(PointDistribution::kUniform, 16, cfg.d, 74);
    for (size_t q = 0; q < probes.size(); ++q) {
      if (index->ReverseKRanks(probes.row(q), 10) !=
          recovered->ReverseKRanks(probes.row(q), 10)) {
        Fail("replay diverged at probe " + std::to_string(q));
      }
    }
    const size_t records = merged.value().records.size();
    std::printf("replay      %8zu rec  %9.1f ms  %9.0f rec/s  (verified)\n",
                records, replay_ms, records / (replay_ms / 1000.0));
    json.Emit(bench::JsonRecord("wal", scale)
                  .Add("arm", "replay")
                  .Add("records", records)
                  .Add("wall_ms", replay_ms)
                  .Add("records_per_sec", records / (replay_ms / 1000.0))
                  .Add("verified", size_t{1}));
  }

  // Arm 3: WAL with fdatasync per mutation, plus one checkpoint.
  {
    auto index = BuildRouter(points, weights);
    AttachFreshWal(*index, (root / "wal-always").string(),
                   FsyncPolicy::kAlways);
    const double ms = RunChurn(*index, cfg, cfg.fsync_ops);
    std::printf("wal-always  %8zu ops  %9.1f ms  %9.0f ops/s\n",
                cfg.fsync_ops, ms, cfg.fsync_ops / (ms / 1000.0));
    EmitArm(json, scale, "wal-always", cfg.fsync_ops, ms, *index);

    const std::string snap = (root / "wal-always" / "snapshot.gir").string();
    double checkpoint_ms = 0.0;
    const Status st = [&] {
      Status inner = Status::OK();
      checkpoint_ms = bench::TimeMs([&] {
        inner = index->Checkpoint(
            [&] { return SaveShardedIndex(snap, *index); });
      });
      return inner;
    }();
    if (!st.ok()) {
      std::fprintf(stderr, "checkpoint failed: %s\n", st.ToString().c_str());
      return 2;
    }
    std::printf("checkpoint  %8llu seq  %9.1f ms  (snapshot + rotate)\n",
                static_cast<unsigned long long>(index->sequence()),
                checkpoint_ms);
    json.Emit(bench::JsonRecord("wal", scale)
                  .Add("arm", "checkpoint")
                  .Add("sequence", static_cast<size_t>(index->sequence()))
                  .Add("wall_ms", checkpoint_ms));
  }

  std::filesystem::remove_all(root);
  std::printf("\nwrote %s\n", json.path().c_str());
  return 0;
}

}  // namespace
}  // namespace gir

int main(int argc, char** argv) { return gir::Main(argc, argv); }
