// Extension benches (beyond the paper's evaluation):
//   * parallel scaling of the GIR queries over worker threads;
//   * aggregate reverse rank (bundle queries, DEXA'16 [7]): GIR's shared
//     Domin buffers + budgeted early termination vs the naive oracle.

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "core/thread_pool.h"
#include "grid/aggregate.h"
#include "grid/gir_queries.h"

namespace gir {
namespace {

void Run() {
  const BenchScale scale = ReadBenchScale();
  bench::PrintHeader("Extensions",
                     "Parallel scaling and aggregate (bundle) queries, "
                     "UN data, d = 8",
                     scale);

  const size_t n = ScaledCardinality(100000, scale);
  const size_t m = ScaledCardinality(100000, scale);
  const size_t d = 8;
  const size_t k = 100;
  const size_t num_queries = scale == BenchScale::kSmoke ? 1 : 2;

  Dataset points = GenerateUniform(n, d, 3301);
  Dataset weights = GenerateWeightsUniform(m, d, 3302);
  auto queries = PickQueryIndices(n, num_queries, 3303);
  auto index = GirIndex::Build(points, weights).value();

  // Both sides run the same engine: the one-row block call, without and
  // with a pool striping W.
  std::printf("-- Parallel reverse k-ranks scaling --\n");
  TablePrinter par({"threads", "RKR (ms)", "speedup"});
  auto avg_rkr_ms = [&](ThreadPool* pool) {
    WallTimer timer;
    for (size_t qi : queries) {
      Dataset one(d);
      one.AppendUnchecked(points.row(qi));
      index.ReverseKRanksBatch(one, k, nullptr, pool);
    }
    return timer.ElapsedMs() / static_cast<double>(queries.size());
  };
  const double base_ms = avg_rkr_ms(nullptr);
  par.AddRow({"no pool", FormatDouble(base_ms, 2), "1.00"});
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    const double ms = avg_rkr_ms(&pool);
    par.AddRow({std::to_string(threads), FormatDouble(ms, 2),
                FormatDouble(base_ms / ms, 2)});
  }
  par.Print();
  std::printf(
      "(speedup tracks physical cores; on a single-core host the parallel\n"
      "path only adds coordination overhead)\n");

  std::printf("\n-- Aggregate reverse rank: bundle size sweep --\n");
  TablePrinter agg({"bundle size", "GIR (ms)", "naive (ms)",
                    "GIR exact products", "naive exact products"});
  for (size_t bundle_size : {1u, 2u, 4u, 8u}) {
    Dataset bundle(d);
    for (size_t i = 0; i < bundle_size; ++i) {
      bundle.AppendUnchecked(points.row((queries[0] + i * 131) % n));
    }
    QueryStats gir_stats, naive_stats;
    const double gir_ms = bench::TimeMs(
        [&] { GirAggregateReverseRank(index, bundle, 10, &gir_stats); });
    const double naive_ms = bench::TimeMs([&] {
      NaiveAggregateReverseRank(points, weights, bundle, 10, &naive_stats);
    });
    agg.AddRow({std::to_string(bundle_size), FormatDouble(gir_ms, 2),
                FormatDouble(naive_ms, 2),
                FormatCount(gir_stats.inner_products),
                FormatCount(naive_stats.inner_products)});
  }
  agg.Print();
}

}  // namespace
}  // namespace gir

int main() {
  gir::Run();
  return 0;
}
