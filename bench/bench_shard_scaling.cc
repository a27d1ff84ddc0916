// Scale-out of the sharded router (DESIGN.md §15): the same writer-heavy
// operation stream is replayed against ShardedGirIndex routers with 1, 2
// and 4 shards, and the aggregate throughput must scale. The mechanism
// is algorithmic, not core-count: InsertWeight pays O(n·d) to score the
// new vector plus O(|W_shard|·d) to rebuild its shard's weight columns
// and live maps, so partitioning W divides the dominant term even on a
// single core — which is exactly the configuration this gate protects
// (a multi-core host additionally overlaps the per-shard workers).
//
// Correctness comes first: before any timing, a merge oracle replays a
// seeded 1000-op mutate/query stream against routers with 1, 2 and
// 4 shards and a plain DynamicGirIndex, and every answer must be
// bit-identical. After each timed arm, probe queries across shard counts
// must also agree bit-for-bit. Any mismatch aborts with a nonzero exit —
// a fast wrong router must never produce a green number.
//
// Acceptance (quick scale): >= 2.5x aggregate throughput at 4 shards vs
// 1 on the writer-heavy arm. The CI smoke step runs with
// --min-speedup 1.5 at the smoke scale.
//
// Flags: --min-speedup X   fail (exit 1) if t1/t4 < X (default 2.5)

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench_util/op_stream.h"
#include "grid/sharded_index.h"

namespace gir {
namespace {

[[noreturn]] void Fatal(const std::string& message) {
  std::fprintf(stderr, "FATAL: %s\n", message.c_str());
  std::abort();
}

// ---- Phase 1: merge oracle --------------------------------------------------

/// Replays one seeded stream against a single DynamicGirIndex and a
/// sharded router in lockstep (the merge oracle sharded_index_test runs);
/// every query must be bit-identical and every mutation must agree on
/// success. Aborts on the first divergence.
void RunOracle(size_t shards, size_t num_ops, uint64_t seed) {
  ShardedIndexOptions options;
  options.shards = shards;
  options.dynamic.gir.scan_mode = ScanMode::kBlocked;
  const Status s = CheckShardedMerge(options, num_ops, seed);
  if (!s.ok()) Fatal("merge oracle: " + s.ToString());
}

// ---- Phase 2: writer-heavy scaling arm --------------------------------------

/// One fixed writer-heavy stream, fully materialized so every shard count
/// replays byte-identical operations. Delete targets are drawn against
/// the tracked live count, so every op succeeds.
///
/// The timed stream is mutations only. A reverse query sweep does the
/// same total work at every shard count (each shard scans its own slice
/// of W; the slices sum to W), so on a single core queries neither gain
/// nor lose from sharding — mixing them into the timed window would only
/// dilute the mutation effect this bench isolates. Queries are still
/// exercised — the oracle phase runs hundreds and the post-arm probes
/// are equality-gated across shard counts — just not timed here.
std::vector<Op> MakeStream(size_t num_ops, size_t initial_weights, size_t d,
                           uint64_t seed) {
  OpStream stream(seed, {.dim = d,
                         .mix = {.insert_weight = 90, .delete_weight = 10},
                         .live_weights = initial_weights});
  std::vector<Op> ops;
  ops.reserve(num_ops);
  for (size_t i = 0; i < num_ops; ++i) ops.push_back(stream.Next());
  return ops;
}

struct ArmResult {
  double elapsed_ms = 0.0;
  std::vector<ReverseKRanksResult> probes;
};

ArmResult RunArm(size_t shards, const Dataset& points, const Dataset& weights,
                 const std::vector<Op>& stream, const Dataset& probe_queries,
                 BenchScale scale, bench::JsonLog& json) {
  ShardedIndexOptions opts;
  opts.shards = shards;
  opts.dynamic.gir.scan_mode = ScanMode::kBlocked;
  auto built = ShardedGirIndex::Build(points, weights, opts);
  if (!built.ok()) Fatal("arm build: " + built.status().ToString());
  ShardedGirIndex& index = *built.value();

  // The caller thread plus one lane per shard.
  bench::BenchThreads() = 1 + shards;

  ArmResult result;
  size_t mutations = 0;
  result.elapsed_ms = bench::TimeMs([&] {
    for (const Op& op : stream) {
      const Status st = ApplyOp(index, op).status;
      if (!st.ok()) {
        Fatal(std::string(OpKindName(op.kind)) + ": " + st.ToString());
      }
      ++mutations;
    }
    index.Quiesce();
  });

  for (size_t i = 0; i < probe_queries.size(); ++i) {
    result.probes.push_back(index.ReverseKRanks(probe_queries.row(i), 8));
  }

  const double ops_per_sec =
      result.elapsed_ms > 0.0
          ? 1000.0 * static_cast<double>(stream.size()) / result.elapsed_ms
          : 0.0;
  bench::JsonRecord record =
      bench::JsonRecord("shard_scaling", scale)
          .Add("arm", "writer_heavy")
          .Add("shards", shards)
          .Add("d", points.dim())
          .Add("n", points.size())
          .Add("num_weights", weights.size())
          .Add("ops", stream.size())
          .Add("mutations", mutations)
          .Add("probe_queries", probe_queries.size())
          .Add("live_weights_final", index.live_weight_count())
          .Add("elapsed_ms", result.elapsed_ms)
          .Add("ops_per_sec", ops_per_sec);
  json.Emit(record);

  // Per-shard breakdown: ownership balance and where the work landed.
  const auto stats = index.ShardStats();
  for (size_t s = 0; s < stats.size(); ++s) {
    json.Emit(bench::JsonRecord("shard_scaling", scale)
                  .Add("arm", "writer_heavy_shard")
                  .Add("shards", shards)
                  .Add("shard", s)
                  .Add("applied_seq", stats[s].applied_seq)
                  .Add("generation", stats[s].generation)
                  .Add("live_weights", stats[s].live_weights)
                  .Add("tasks", stats[s].tasks)
                  .Add("mutations", stats[s].mutations)
                  .Add("queries", stats[s].queries)
                  .Add("points_streamed", stats[s].points_streamed)
                  .Add("points_skipped", stats[s].points_skipped)
                  .Add("latency_p50_us", stats[s].latency_p50_us)
                  .Add("latency_p99_us", stats[s].latency_p99_us)
                  .Add("qps_share", stats[s].qps_share));
  }
  return result;
}

int Run(int argc, char** argv) {
  const BenchScale scale = ReadBenchScale();
  double min_speedup = 2.5;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--min-speedup") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --min-speedup expects a value\n");
        return 2;
      }
      min_speedup = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr, "error: unknown flag %s\n", arg.c_str());
      return 2;
    }
  }

  bench::PrintHeader(
      "shard-scaling",
      "Writer-heavy operation stream against 1/2/4-shard routers, every\n"
      "configuration equality-gated (randomized merge oracle vs a single\n"
      "DynamicGirIndex, then cross-shard-count probe queries) before any\n"
      "number counts",
      scale);

  // Phase 1: the merge oracle gates everything downstream.
  std::printf("merge oracle: 1000 randomized ops per shard count...\n");
  for (const size_t shards : {1, 2, 4}) {
    RunOracle(shards, /*num_ops=*/1000, /*seed=*/7100 + shards);
  }
  std::printf("merge oracle: all shard counts bit-identical\n\n");

  // Phase 2: writer-heavy scaling. W is the sharded axis, so |W| is what
  // makes per-insert column rebuilds expensive; n stays small so the
  // unsharded O(n*d) scoring term does not mask the effect.
  size_t n = 600;
  size_t m = 32'768;
  size_t ops = 1'200;
  switch (scale) {
    case BenchScale::kSmoke:
      n = 300;
      m = 16'384;
      ops = 300;
      break;
    case BenchScale::kQuick:
      break;
    case BenchScale::kFull:
      n = 800;
      m = 49'152;
      ops = 2'400;
      break;
  }
  const size_t kDim = 8;
  const Dataset points =
      GeneratePoints(PointDistribution::kUniform, n, kDim, 7200);
  const Dataset weights =
      GenerateWeights(WeightDistribution::kUniform, m, kDim, 7201);
  const std::vector<Op> stream = MakeStream(ops, m, kDim, 7202);
  Dataset probes(kDim);
  {
    std::mt19937_64 rng(7203);
    for (int i = 0; i < 16; ++i) {
      const std::vector<double> q = RandomPointRow(rng, kDim);
      probes.AppendUnchecked(ConstRow(q.data(), q.size()));
    }
  }

  bench::JsonLog json("shard_scaling");
  std::vector<size_t> shard_counts = {1, 2, 4};
  std::vector<ArmResult> arms;
  for (const size_t shards : shard_counts) {
    std::printf("writer-heavy arm: %zu shard(s), %zu ops over %zu weights\n",
                shards, ops, m);
    arms.push_back(RunArm(shards, points, weights, stream, probes, scale,
                          json));
    if (!arms.empty() && arms.size() > 1) {
      if (arms.back().probes != arms[0].probes) {
        Fatal("RKR answers diverge: post-stream probe");
      }
    }
  }

  const double t1 = arms[0].elapsed_ms;
  const double t2 = arms[1].elapsed_ms;
  const double t4 = arms[2].elapsed_ms;
  const double speedup2 = t2 > 0.0 ? t1 / t2 : 0.0;
  const double speedup4 = t4 > 0.0 ? t1 / t4 : 0.0;
  json.Emit(bench::JsonRecord("shard_scaling", scale)
                .Add("arm", "speedup")
                .Add("ops", ops)
                .Add("num_weights", m)
                .Add("t1_ms", t1)
                .Add("t2_ms", t2)
                .Add("t4_ms", t4)
                .Add("speedup_2", speedup2)
                .Add("speedup_4", speedup4)
                .Add("min_speedup", min_speedup));
  std::printf(
      "\nspeedup vs 1 shard: x%.2f at 2 shards, x%.2f at 4 shards "
      "(gate: >= %.2f at 4)\n",
      speedup2, speedup4, min_speedup);
  std::printf(
      "Expected shape: near-linear in the shard count — per-insert column\n"
      "rebuilds are O(|W_shard|*d), so four shards do a quarter of the\n"
      "dominant work per mutation even on one core.\n");
  if (speedup4 < min_speedup) {
    std::fprintf(stderr,
                 "FAIL: 4-shard speedup x%.2f below the x%.2f gate\n",
                 speedup4, min_speedup);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace gir

int main(int argc, char** argv) {
  gir::bench::ParseThreadsFlag(&argc, argv);
  return gir::Run(argc, argv);
}
