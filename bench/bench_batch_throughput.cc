// Multi-query batch throughput: queries/sec of the batched entry points
// (GirIndex::ReverseTopKBatch / ReverseKRanksBatch, and their parallel
// drivers when --threads > 1) against per-query dispatch of the same
// engine, for both the blocked engine and the τ-index. The batch engines
// answer a whole query block per sweep — the blocked one accumulates each
// (point block, weight) bound once per query *batch* via
// RankPreparedMulti, the τ one scores the block with one register-tiled
// Q x W sweep — so the comparison isolates exactly that amortization.
// Every batch result is checked for equality against the per-query result
// before any number is emitted.
//
// Scales: smoke n=10K |W|=1K Q=16; quick n=100K |W|=10K Q=64 (the
// acceptance configuration: blocked batch >= 2x per-query dispatch);
// full additionally runs Q=256.
//
// Flags: --threads N (default: hardware concurrency) sizes the ThreadPool
// for the parallel batch drivers; with 1 thread the parallel rows are
// omitted.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "core/thread_pool.h"
#include "grid/tau_index.h"

namespace gir {
namespace {

struct Config {
  size_t n;
  size_t m;
  size_t d;
  size_t q;  // batch size (number of queries)
};

void RequireEqualRtk(const std::vector<ReverseTopKResult>& expect,
                     const std::vector<ReverseTopKResult>& actual,
                     const char* what) {
  bool same = expect.size() == actual.size();
  for (size_t i = 0; same && i < expect.size(); ++i) {
    same = expect[i] == actual[i];
  }
  if (!same) {
    std::fprintf(stderr, "FATAL: batch RTK mismatch vs %s\n", what);
    std::abort();
  }
}

void RequireEqualRkr(const std::vector<ReverseKRanksResult>& expect,
                     const std::vector<ReverseKRanksResult>& actual,
                     const char* what) {
  bool same = expect.size() == actual.size();
  for (size_t i = 0; same && i < expect.size(); ++i) {
    same = expect[i].size() == actual[i].size();
    for (size_t j = 0; same && j < expect[i].size(); ++j) {
      same = expect[i][j].weight_id == actual[i][j].weight_id &&
             expect[i][j].rank == actual[i][j].rank;
    }
  }
  if (!same) {
    std::fprintf(stderr, "FATAL: batch RKR mismatch vs %s\n", what);
    std::abort();
  }
}

double Qps(size_t queries, double ms) {
  return ms > 0.0 ? 1000.0 * static_cast<double>(queries) / ms : 0.0;
}

void EmitRecord(bench::JsonLog& json, BenchScale scale, const Config& config,
                const char* engine, const char* type, size_t k,
                double per_query_ms, double batch_ms, double parallel_ms,
                size_t threads) {
  bench::JsonRecord record =
      bench::JsonRecord("batch_throughput", scale)
          .Add("engine", engine)
          .Add("type", type)
          .Add("d", config.d)
          .Add("n", config.n)
          .Add("num_weights", config.m)
          .Add("batch_queries", config.q)
          .Add("k", k)
          .Add("per_query_ms", per_query_ms)
          .Add("batch_ms", batch_ms)
          .Add("per_query_qps", Qps(config.q, per_query_ms))
          .Add("batch_qps", Qps(config.q, batch_ms))
          .Add("batch_speedup", per_query_ms > 0.0 && batch_ms > 0.0
                                    ? per_query_ms / batch_ms
                                    : 0.0);
  if (threads > 1) {
    record.Add("parallel_batch_ms", parallel_ms)
        .Add("parallel_batch_qps", Qps(config.q, parallel_ms));
  } else {
    record.AddNull("parallel_batch_ms").AddNull("parallel_batch_qps");
  }
  json.Emit(record);
}

void RunEngine(const char* engine, const GirIndex& index,
               const Dataset& queries, size_t k, const Config& config,
               size_t threads, BenchScale scale, bench::JsonLog& json) {
  const size_t q = queries.size();

  // --- reverse top-k: per-query dispatch is the reference for both the
  // timing comparison and the equality gate.
  std::vector<ReverseTopKResult> rtk_ref(q);
  const double rtk_per_ms = bench::TimeMs([&] {
    for (size_t qi = 0; qi < q; ++qi) {
      rtk_ref[qi] = index.ReverseTopK(queries.row(qi), k);
    }
  });
  std::vector<ReverseTopKResult> rtk_batch;
  const double rtk_batch_ms =
      bench::TimeMs([&] { rtk_batch = index.ReverseTopKBatch(queries, k); });
  RequireEqualRtk(rtk_ref, rtk_batch, "per-query RTK");
  double rtk_parallel_ms = 0.0;
  if (threads > 1) {
    ThreadPool pool(threads);
    std::vector<ReverseTopKResult> rtk_parallel;
    rtk_parallel_ms = bench::TimeMs([&] {
      rtk_parallel = index.ReverseTopKBatch(queries, k, nullptr, &pool);
    });
    RequireEqualRtk(rtk_ref, rtk_parallel, "per-query RTK (parallel)");
  }
  EmitRecord(json, scale, config, engine, "rtk", k, rtk_per_ms, rtk_batch_ms,
             rtk_parallel_ms, threads);

  // --- reverse k-ranks, same shape.
  std::vector<ReverseKRanksResult> rkr_ref(q);
  const double rkr_per_ms = bench::TimeMs([&] {
    for (size_t qi = 0; qi < q; ++qi) {
      rkr_ref[qi] = index.ReverseKRanks(queries.row(qi), k);
    }
  });
  std::vector<ReverseKRanksResult> rkr_batch;
  const double rkr_batch_ms =
      bench::TimeMs([&] { rkr_batch = index.ReverseKRanksBatch(queries, k); });
  RequireEqualRkr(rkr_ref, rkr_batch, "per-query RKR");
  double rkr_parallel_ms = 0.0;
  if (threads > 1) {
    ThreadPool pool(threads);
    std::vector<ReverseKRanksResult> rkr_parallel;
    rkr_parallel_ms = bench::TimeMs([&] {
      rkr_parallel = index.ReverseKRanksBatch(queries, k, nullptr, &pool);
    });
    RequireEqualRkr(rkr_ref, rkr_parallel, "per-query RKR (parallel)");
  }
  EmitRecord(json, scale, config, engine, "rkr", k, rkr_per_ms, rkr_batch_ms,
             rkr_parallel_ms, threads);
}

void RunConfig(const Config& config, size_t k, size_t threads,
               BenchScale scale, bench::JsonLog& json) {
  Dataset points = GenerateUniform(config.n, config.d, 5100 + config.d);
  Dataset weights =
      GenerateWeightsUniform(config.m, config.d, 5200 + config.d);
  const auto query_rows =
      PickQueryIndices(config.n, config.q, 5300 + config.d);
  Dataset queries(config.d);
  for (size_t qi : query_rows) queries.AppendUnchecked(points.row(qi));

  GirOptions options;
  options.scan_mode = ScanMode::kBlocked;
  GirIndex index = GirIndex::Build(points, weights, options).value();
  RunEngine("blocked", index, queries, k, config, threads, scale, json);

  TauIndexOptions tau_options;
  tau_options.threads = threads;
  auto tau = TauIndex::Build(points, weights, tau_options);
  index.AttachTauIndex(
      std::make_shared<const TauIndex>(std::move(tau).value()));
  index.set_scan_mode(ScanMode::kTauIndex);
  RunEngine("tau", index, queries, k, config, threads, scale, json);
}

void Run(size_t threads) {
  const BenchScale scale = ReadBenchScale();
  bench::PrintHeader(
      "batch-throughput",
      "Batched multi-query execution vs per-query dispatch, blocked and\n"
      "tau engines: one RankPreparedMulti / tiled-sweep pass per query\n"
      "block, equality-gated against the per-query results",
      scale);

  const size_t k = 10;
  std::vector<Config> configs;
  switch (scale) {
    case BenchScale::kSmoke:
      configs = {{10'000, 1'000, 8, 16}};
      break;
    case BenchScale::kQuick:
      configs = {{100'000, 10'000, 8, 64}};
      break;
    case BenchScale::kFull:
      configs = {{100'000, 10'000, 8, 64}, {100'000, 10'000, 8, 256}};
      break;
  }

  bench::JsonLog json("batch_throughput");
  for (const Config& config : configs) {
    RunConfig(config, k, threads, scale, json);
  }
  std::printf(
      "\nExpected shape: blocked batch_qps >= 2x per_query_qps at Q=64 —\n"
      "each (point block, weight) bound accumulation runs once per query\n"
      "batch instead of once per query. tau RTK amortizes the per-call\n"
      "dispatch through one tiled Q x W sweep; tau RKR additionally shares\n"
      "one blocked fallback across every query's unresolved band.\n");
}

}  // namespace
}  // namespace gir

int main(int argc, char** argv) {
  gir::Run(gir::bench::ParseThreadsFlag(&argc, argv));
  return 0;
}
