// Dynamic-index churn throughput: queries/sec of DynamicGirIndex as the
// delta buffer fills (ISSUE 4 acceptance: mid-churn throughput within 2x
// of the clean baseline at <= 10% delta fill), plus the cost of folding
// the delta into a fresh generation (Compact) and the post-compact
// recovery. Each measurement point is equality-gated against an index
// rebuilt from scratch over the live sets before any number is emitted —
// the bench refuses to time wrong answers — and the compacted index's
// footprint is gated against a fresh build over the same live sets.
//
// Mutation arm: every point insert, point delete and weight insert on the
// way to each fill point is timed, and its median / p90 / max µs land in
// that fill's record. The flatness gate then compares a point mutation at
// 10% fill with one at 2% fill on two indexes held side by side, probed
// in alternation: the point-mutation median at 10% must stay within
// kMaxPointMutationGrowth of the 2% one, or the bench aborts.
//
// Churn mix per operation: 50% point insert (fresh uniform row), 20%
// point delete, 15% weight insert (a copy of a random base weight row, so
// the value range stays inside the generation's weight grid and the
// measurement is not cut short by an out-of-range compaction), 15% weight
// delete. auto_compact is off: the bench drives Compact() itself so the
// delta fill is held at the level being measured.
//
// Scales: smoke n=5K |W|=500 Q=8; quick n=50K |W|=5K Q=32; full n=100K
// |W|=10K Q=64. Engines: blocked and tau. k = 10.
//
// Flags: --threads N (stamped into the JSON; the timed entry points here
// are the serial ones, so the stamp records provenance, not parallelism).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "bench_util/op_stream.h"
#include "bench_util/timer.h"
#include "data/rng.h"
#include "grid/dynamic_index.h"

namespace gir {
namespace {

struct Config {
  size_t n;
  size_t m;
  size_t d;
  size_t q;  // number of query vectors
};

double Qps(size_t queries, double ms) {
  return ms > 0.0 ? 1000.0 * static_cast<double>(queries) / ms : 0.0;
}

/// Aborts unless every query answers bit-identically to the rebuilt
/// oracle on both query types.
void RequireMatchesRebuild(const DynamicGirIndex& dyn, const Dataset& queries,
                           size_t k, const char* where) {
  const Result<RebuiltIndex> oracle = RebuildOracle(dyn);
  if (!oracle.ok()) {
    std::fprintf(stderr, "FATAL: oracle rebuild failed: %s\n",
                 oracle.status().ToString().c_str());
    std::abort();
  }
  const GirIndex& rebuilt = *oracle.value().index;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    ConstRow q = queries.row(qi);
    if (dyn.ReverseTopK(q, k) != rebuilt.ReverseTopK(q, k)) {
      std::fprintf(stderr, "FATAL: RTK mismatch vs rebuild at %s (q=%zu)\n",
                   where, qi);
      std::abort();
    }
    if (dyn.ReverseKRanks(q, k) != rebuilt.ReverseKRanks(q, k)) {
      std::fprintf(stderr, "FATAL: RKR mismatch vs rebuild at %s (q=%zu)\n",
                   where, qi);
      std::abort();
    }
  }
}

/// A compaction must release the old delta: the compacted index may cost
/// at most 5% more than a fresh build over the same live sets.
void RequireCompactedFootprint(const DynamicGirIndex& dyn,
                               const DynamicIndexOptions& options,
                               const char* engine) {
  const Dataset live_points = dyn.LivePoints();
  const Dataset live_weights = dyn.LiveWeights();
  auto fresh = DynamicGirIndex::Build(live_points, live_weights, options);
  if (!fresh.ok()) {
    std::fprintf(stderr, "FATAL: rebuild failed: %s\n",
                 fresh.status().ToString().c_str());
    std::abort();
  }
  const size_t fresh_bytes = fresh.value().MemoryBytes().total();
  const size_t bytes = dyn.MemoryBytes().total();
  std::printf("%s post-compact footprint: %zu bytes (fresh build %zu)\n",
              engine, bytes, fresh_bytes);
  if (bytes > fresh_bytes + fresh_bytes / 20) {
    std::fprintf(stderr,
                 "FATAL: %s compaction kept %zu bytes over a fresh build\n",
                 engine, bytes - fresh_bytes);
    std::abort();
  }
}

/// Wall time of every timed churn operation, by kind, in µs.
struct MutationTimes {
  std::vector<double> point_insert;
  std::vector<double> point_delete;
  std::vector<double> weight_insert;
};

/// Nearest-rank quantile of `samples` (0 when empty).
double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  return samples[std::clamp<size_t>(rank, 1, samples.size()) - 1];
}

/// Median of point inserts and point deletes pooled: the cost of one
/// point mutation at the current delta fill.
double PointMutationMedian(const MutationTimes& times) {
  std::vector<double> pooled = times.point_insert;
  pooled.insert(pooled.end(), times.point_delete.begin(),
                times.point_delete.end());
  return Quantile(std::move(pooled), 0.5);
}

/// Applies churn operations until ChurnFraction() >= fill, timing every
/// point insert, point delete and weight insert into `times`. Returns the
/// number of operations applied.
size_t ChurnToFill(DynamicGirIndex& dyn, double fill, Rng& rng,
                   MutationTimes& times) {
  const size_t d = dyn.dim();
  size_t ops = 0;
  while (dyn.ChurnFraction() < fill) {
    const size_t roll = rng.NextIndex(100);
    Status s = Status::OK();
    if (roll < 50) {
      const Dataset fresh = GenerateUniform(1, d, rng.NextU64());
      WallTimer timer;
      s = dyn.InsertPoint(fresh.row(0));
      times.point_insert.push_back(1000.0 * timer.ElapsedMs());
    } else if (roll < 70) {
      if (dyn.live_point_count() < 2) continue;
      const VectorId id =
          static_cast<VectorId>(rng.NextIndex(dyn.live_point_count()));
      WallTimer timer;
      s = dyn.DeletePoint(id);
      times.point_delete.push_back(1000.0 * timer.ElapsedMs());
    } else if (roll < 85) {
      const size_t row = rng.NextIndex(dyn.base_weights().size());
      WallTimer timer;
      s = dyn.InsertWeight(dyn.base_weights().row(row));
      times.weight_insert.push_back(1000.0 * timer.ElapsedMs());
    } else {
      if (dyn.live_weight_count() < 2) continue;
      s = dyn.DeleteWeight(
          static_cast<VectorId>(rng.NextIndex(dyn.live_weight_count())));
    }
    if (!s.ok()) {
      std::fprintf(stderr, "FATAL: churn op failed: %s\n",
                   s.ToString().c_str());
      std::abort();
    }
    ++ops;
  }
  return ops;
}

struct Measurement {
  double rtk_ms;
  double rkr_ms;
  QueryStats rtk_stats;
  QueryStats rkr_stats;
};

Measurement Measure(const DynamicGirIndex& dyn, const Dataset& queries,
                    size_t k) {
  // Warm-up: touch every structure the timed loops will stream so the
  // first measurement point is not a cold-cache artifact.
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    dyn.ReverseTopK(queries.row(qi), k);
    dyn.ReverseKRanks(queries.row(qi), k);
  }
  Measurement m;
  m.rtk_ms = bench::TimeMs([&] {
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      dyn.ReverseTopK(queries.row(qi), k, &m.rtk_stats);
    }
  });
  m.rkr_ms = bench::TimeMs([&] {
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      dyn.ReverseKRanks(queries.row(qi), k, &m.rkr_stats);
    }
  });
  return m;
}

void EmitRecord(bench::JsonLog& json, BenchScale scale, const Config& config,
                const DynamicGirIndex& dyn, const char* engine,
                const char* phase, double fill, size_t ops, size_t k,
                const Measurement& m, const Measurement& clean,
                double compact_ms, const MutationTimes* times) {
  bench::JsonRecord record =
      bench::JsonRecord("dynamic_churn", scale)
          .Add("engine", engine)
          .Add("phase", phase)
          .Add("d", config.d)
          .Add("n", config.n)
          .Add("num_weights", config.m)
          .Add("num_queries", config.q)
          .Add("k", k)
          .Add("fill_pct", 100.0 * fill)
          .Add("ops_applied", ops)
          .Add("rtk_qps", Qps(config.q, m.rtk_ms))
          .Add("rkr_qps", Qps(config.q, m.rkr_ms))
          .Add("rtk_slowdown",
               clean.rtk_ms > 0.0 ? m.rtk_ms / clean.rtk_ms : 0.0)
          .Add("rkr_slowdown",
               clean.rkr_ms > 0.0 ? m.rkr_ms / clean.rkr_ms : 0.0)
          .Add("rtk_inner_products_per_query",
               static_cast<double>(m.rtk_stats.inner_products) /
                   static_cast<double>(config.q))
          .Add("rkr_inner_products_per_query",
               static_cast<double>(m.rkr_stats.inner_products) /
                   static_cast<double>(config.q));
  if (compact_ms >= 0.0) {
    record.Add("compact_ms", compact_ms);
  } else {
    record.AddNull("compact_ms");
  }
  // Mutation latency over the operations that brought the delta from the
  // previous fill point to this one.
  if (times != nullptr) {
    const auto add_latency = [&](const char* name,
                                 const std::vector<double>& samples) {
      const std::string prefix(name);
      record.Add(prefix + "_count", samples.size());
      record.Add(prefix + "_p50_us", Quantile(samples, 0.5));
      record.Add(prefix + "_p90_us", Quantile(samples, 0.9));
      record.Add(prefix + "_max_us", Quantile(samples, 1.0));
    };
    add_latency("point_insert", times->point_insert);
    add_latency("point_delete", times->point_delete);
    add_latency("weight_insert", times->weight_insert);
    record.Add("point_mut_p50_us", PointMutationMedian(*times));
  }
  // Footprint at this measurement point: the succinct structures (packed
  // tombstone bitmaps, delta-coded score arrays) show up here as fewer
  // bytes per live point.
  const DynamicGirIndex::MemoryBreakdown mb = dyn.MemoryBytes();
  bench::AddFootprint(record, mb.total(), dyn.live_point_count());
  record.Add("bitmap_bytes", mb.bitmap_bytes);
  record.Add("delta_bytes", mb.delta_bytes);
  json.Emit(record);
}

/// A point mutation must cost about the same at 10% delta fill as at 2%:
/// it appends one score per weight instead of inserting into one sorted
/// array per weight, whose cost grew with the delta.
constexpr double kMaxPointMutationGrowth = 2.0;

/// Probe rounds per index for the flatness gate.
constexpr size_t kProbeRounds = 256;

/// Point-mutation medians of two indexes (µs), each from kProbeRounds
/// rounds of "insert a fresh point, delete it again". The rounds alternate
/// between the indexes, so a slow stretch of the machine lands on both
/// alike; timing each fill's own churn window instead compares windows a
/// few milliseconds long (at smoke scale) taken at different moments. A
/// round leaves the delta as it found it: the deleted point is the one
/// just inserted, so it is removed from the store's buffer in place.
std::pair<double, double> ProbePointMutations(DynamicGirIndex& a,
                                              DynamicGirIndex& b,
                                              uint64_t seed) {
  Rng rng(seed);
  std::vector<double> times[2];
  DynamicGirIndex* const indexes[2] = {&a, &b};
  for (size_t round = 0; round < kProbeRounds; ++round) {
    const Dataset fresh = GenerateUniform(1, a.dim(), rng.NextU64());
    for (size_t i = 0; i < 2; ++i) {
      DynamicGirIndex& dyn = *indexes[(round + i) % 2];
      std::vector<double>& out = times[(round + i) % 2];
      WallTimer insert_timer;
      Status s = dyn.InsertPoint(fresh.row(0));
      out.push_back(1000.0 * insert_timer.ElapsedMs());
      if (s.ok()) {
        const auto newest = static_cast<VectorId>(dyn.live_point_count() - 1);
        WallTimer delete_timer;
        s = dyn.DeletePoint(newest);
        out.push_back(1000.0 * delete_timer.ElapsedMs());
      }
      if (!s.ok()) {
        std::fprintf(stderr, "FATAL: probe mutation failed: %s\n",
                     s.ToString().c_str());
        std::abort();
      }
    }
  }
  return {Quantile(std::move(times[0]), 0.5),
          Quantile(std::move(times[1]), 0.5)};
}

void RequireFlatPointMutations(const char* engine, double p50_at_2pct,
                               double p50_at_10pct) {
  const double growth = p50_at_2pct > 0.0 ? p50_at_10pct / p50_at_2pct : 0.0;
  std::printf("%s point-mutation median: %.1f us at 2%% fill, %.1f us at "
              "10%% (%.2fx, gate %.1fx)\n",
              engine, p50_at_2pct, p50_at_10pct, growth,
              kMaxPointMutationGrowth);
  if (growth > kMaxPointMutationGrowth) {
    std::fprintf(stderr,
                 "FATAL: %s point-mutation median grew %.2fx from 2%% to "
                 "10%% fill (gate %.1fx)\n",
                 engine, growth, kMaxPointMutationGrowth);
    std::abort();
  }
}

void RunEngine(const char* engine, ScanMode mode, const Config& config,
               size_t k, BenchScale scale, bench::JsonLog& json) {
  Dataset points = GenerateUniform(config.n, config.d, 7100 + config.d);
  Dataset weights =
      GenerateWeightsUniform(config.m, config.d, 7200 + config.d);
  const auto query_rows =
      PickQueryIndices(config.n, config.q, 7300 + config.d);
  Dataset queries(config.d);
  for (size_t qi : query_rows) queries.AppendUnchecked(points.row(qi));

  DynamicIndexOptions options;
  options.gir.scan_mode = mode;
  options.auto_compact = false;  // the bench drives Compact() itself
  const auto build = [&] {
    auto built = DynamicGirIndex::Build(points, weights, options);
    if (!built.ok()) {
      std::fprintf(stderr, "FATAL: build failed: %s\n",
                   built.status().ToString().c_str());
      std::abort();
    }
    return std::move(built).value();
  };
  DynamicGirIndex dyn = build();

  const Measurement clean = Measure(dyn, queries, k);
  EmitRecord(json, scale, config, dyn, engine, "clean", 0.0, 0, k, clean, clean,
             -1.0, nullptr);

  const uint64_t churn_seed = 900 + config.d;
  Rng rng(churn_seed);
  size_t total_ops = 0;
  for (double fill : {0.02, 0.05, 0.10}) {
    MutationTimes times;
    total_ops += ChurnToFill(dyn, fill, rng, times);
    RequireMatchesRebuild(dyn, queries, k, engine);
    const Measurement dirty = Measure(dyn, queries, k);
    EmitRecord(json, scale, config, dyn, engine, "churn", fill, total_ops, k,
               dirty, clean, -1.0, &times);
  }

  // The same churn stream replayed onto a second index stops at 2% fill,
  // the state `dyn` had there.
  {
    DynamicGirIndex at_2pct = build();
    Rng replay(churn_seed);
    MutationTimes unused;
    ChurnToFill(at_2pct, 0.02, replay, unused);
    const auto [p50_at_2pct, p50_at_10pct] =
        ProbePointMutations(at_2pct, dyn, 950 + config.d);
    json.Emit(bench::JsonRecord("dynamic_churn", scale)
                  .Add("engine", engine)
                  .Add("phase", "mutation_probe")
                  .Add("probe_rounds", kProbeRounds)
                  .Add("point_mut_p50_us_at_2pct", p50_at_2pct)
                  .Add("point_mut_p50_us_at_10pct", p50_at_10pct));
    RequireFlatPointMutations(engine, p50_at_2pct, p50_at_10pct);
  }

  const double compact_ms = bench::TimeMs([&] {
    const Status s = dyn.Compact();
    if (!s.ok()) {
      std::fprintf(stderr, "FATAL: compact failed: %s\n",
                   s.ToString().c_str());
      std::abort();
    }
  });
  RequireMatchesRebuild(dyn, queries, k, "post-compact");
  RequireCompactedFootprint(dyn, options, engine);
  const Measurement compacted = Measure(dyn, queries, k);
  EmitRecord(json, scale, config, dyn, engine, "post_compact", 0.0, total_ops, k,
             compacted, clean, compact_ms, nullptr);
}

void Run() {
  const BenchScale scale = ReadBenchScale();
  bench::PrintHeader(
      "dynamic-churn",
      "DynamicGirIndex queries/sec vs delta fill (2/5/10%), compaction\n"
      "cost, and post-compact recovery; every point equality-gated against\n"
      "a rebuild-from-scratch index over the live sets",
      scale);

  Config config{};
  switch (scale) {
    case BenchScale::kSmoke:
      config = {5'000, 500, 8, 8};
      break;
    case BenchScale::kQuick:
      config = {50'000, 5'000, 8, 32};
      break;
    case BenchScale::kFull:
      config = {100'000, 10'000, 8, 64};
      break;
  }

  const size_t k = 10;
  bench::JsonLog json("dynamic_churn");
  RunEngine("blocked", ScanMode::kBlocked, config, k, scale, json);
  RunEngine("tau", ScanMode::kTauIndex, config, k, scale, json);
  std::printf(
      "\nExpected shape: tau rtk_slowdown and rkr_slowdown stay <= 2.0\n"
      "through the 10%% fill point — the incrementally patched live tau\n"
      "heads keep dirty reverse top-k on the clean engine's SIMD row test.\n"
      "Blocked rtk_slowdown falls below 1 as the delta grows: that is not a\n"
      "recovery but a side effect of the exact correction counts, which\n"
      "reject a weight with no scan whenever k + removed - added <= 0 (the\n"
      "live delta alone already outranks q k times). A point mutation\n"
      "costs about the same at 10%% fill as at 2%% (gated, on two indexes\n"
      "probed in alternation): it appends one score per weight to the\n"
      "shared sorted-run stores. compact_ms is a full generation rebuild;\n"
      "post_compact qps should match the clean row.\n");
}

}  // namespace
}  // namespace gir

int main(int argc, char** argv) {
  gir::bench::ParseThreadsFlag(&argc, argv);
  gir::Run();
  return 0;
}
