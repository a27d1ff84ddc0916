// gir_cli — command-line front end for the library.
//
//   gir_cli generate    --kind points|weights --dist UN --n 10000 --d 6
//                       --seed 1 --out p.bin [--range 10000]
//   gir_cli build-index --points p.bin --weights w.bin --out idx.bin
//                       [--partitions 32] [--adaptive]
//   gir_cli query       --points p.bin --weights w.bin --type rtk|rkr|topk
//                       --k 10 (--query-row 7 | --query 1.5,2,3)
//                       [--index idx.bin] [--stats]
//   gir_cli info        --dataset p.bin | --index idx.bin --points p.bin
//                       --weights w.bin
//   gir_cli tau build   --points p.bin --weights w.bin --out tau.bin
//                       [--k-max 64] [--bins 64] [--threads 0]
//   gir_cli tau query   --points p.bin --weights w.bin --tau tau.bin
//                       --type rtk|rkr --k 10 (--query-row 7 | --query ...)
//                       [--stats]
//   gir_cli tau info    --tau tau.bin --weights w.bin
//   gir_cli batch-query --points p.bin --weights w.bin --type rtk|rkr --k 10
//                       (--queries q.bin | --query-row 0 --num-queries 64)
//                       [--tau tau.bin] [--threads N] [--stats] [--verbose]
//   gir_cli update init    --points p.bin --weights w.bin --out dyn.bin
//                          [--partitions 32] [--scan-mode wat|blocked|tau]
//                          [--compact-threshold 0.25] [--no-auto-compact]
//   gir_cli update insert  --index dyn.bin --kind point|weight
//                          --values v1,v2,... [--out FILE]
//   gir_cli update delete  --index dyn.bin --kind point|weight --id N
//                          [--out FILE]
//   gir_cli update compact --index dyn.bin [--out FILE]
//   gir_cli update info    --index dyn.bin
//   gir_cli update query   --index dyn.bin --type rtk|rkr --k 10
//                          --query v1,v2,... [--stats]
//   gir_cli shard init     --points p.bin --weights w.bin --out shd.bin
//                          --shards N [--partitions 32]
//                          [--scan-mode wat|blocked|tau]
//   gir_cli shard info     --index shd.bin
//   gir_cli shard split    --index shd.bin --out-prefix P
//   gir_cli shard query    --index shd.bin --type rtk|rkr --k 10
//                          --query v1,v2,... [--stats]
//   gir_cli remote ping|info|compact --port P [--host H]
//   gir_cli remote stats   --port P [--host H] [--json]
//   gir_cli remote query   --port P --type rtk|rkr --k 10 --query v1,v2,...
//                          [--deadline-us N]
//   gir_cli remote insert  --port P --kind point|weight --values v1,v2,...
//   gir_cli remote delete  --port P --kind point|weight --id N
//
// `remote stats` renders the server-wide counters verbatim and folds the
// `shardN.<key> <value>` rows a sharded server appends into one table
// row per shard (generation, queue, qps share, p99). With --json the
// whole snapshot is emitted instead as one single-line JSON object in
// the BENCH_*.json record shape (bench/bench_common.h), for scripted
// scrapers.
//
// Exit code 0 on success, 1 on usage errors, 2 on runtime failures. Every
// failure path prints a one-line `error: ...` to stderr (cli_test asserts
// both conventions).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/thread_pool.h"
#include "core/topk.h"
#include "data/generators.h"
#include "data/weights.h"
#include "grid/adaptive_grid.h"
#include "grid/dynamic_index.h"
#include "grid/gir_queries.h"
#include "grid/index_io.h"
#include "grid/sharded_index.h"
#include "io/dataset_io.h"
#include "server/client.h"
#include "tool_util.h"

namespace gir {
namespace {

void PrintUsage();

/// Usage-level failure with the full usage text attached: one `error:`
/// line first (so scripts always have a parseable reason), then the
/// usage block, exit code 1.
int FailUsage(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  PrintUsage();
  return 1;
}

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: gir_cli <generate|build-index|query|info|tau|update|shard|"
      "remote> [--flag value ...]\n"
      "  generate    --kind points|weights --dist UN|CL|AC|NORMAL|EXP|SPARSE\n"
      "              --n N --d D --seed S --out FILE [--range R]\n"
      "  build-index --points FILE --weights FILE --out FILE\n"
      "              [--partitions N] [--adaptive]\n"
      "  query       --points FILE --weights FILE --type rtk|rkr|topk --k K\n"
      "              (--query-row I | --query v1,v2,...) [--index FILE]\n"
      "              [--stats]\n"
      "  info        --dataset FILE | --index FILE --points FILE "
      "--weights FILE\n"
      "  tau build   --points FILE --weights FILE --out FILE\n"
      "              [--k-max K] [--bins B] [--threads T]\n"
      "  tau query   --points FILE --weights FILE --tau FILE\n"
      "              --type rtk|rkr --k K (--query-row I | --query v,...)\n"
      "              [--stats]\n"
      "  tau info    --tau FILE --weights FILE\n"
      "  batch-query --points FILE --weights FILE --type rtk|rkr --k K\n"
      "              (--queries FILE | --query-row I --num-queries Q)\n"
      "              [--tau FILE] [--threads N] [--stats] [--verbose]\n"
      "  update init    --points FILE --weights FILE --out FILE\n"
      "                 [--partitions N] [--scan-mode wat|blocked|tau]\n"
      "                 [--compact-threshold F] [--no-auto-compact]\n"
      "  update insert  --index FILE --kind point|weight --values v1,v2,...\n"
      "                 [--out FILE]\n"
      "  update delete  --index FILE --kind point|weight --id N [--out FILE]\n"
      "  update compact --index FILE [--out FILE]\n"
      "  update info    --index FILE\n"
      "  update query   --index FILE --type rtk|rkr --k K --query v1,v2,...\n"
      "                 [--stats]\n"
      "  shard init     --points FILE --weights FILE --out FILE --shards N\n"
      "                 [--partitions N] [--scan-mode wat|blocked|tau]\n"
      "  shard info     --index FILE\n"
      "  shard split    --index FILE --out-prefix P\n"
      "  shard query    --index FILE --type rtk|rkr --k K --query v1,v2,...\n"
      "                 [--stats]\n"
      "  remote ping|info|stats|compact --port P [--host H] [--timeout-ms N]\n"
      "  remote query   --port P --type rtk|rkr --k K --query v1,v2,...\n"
      "                 [--deadline-us N]\n"
      "  remote insert  --port P --kind point|weight --values v1,v2,...\n"
      "  remote delete  --port P --kind point|weight --id N\n");
}

int RunGenerate(const Args& args) {
  const auto kind = args.Get("kind");
  const auto dist = args.Get("dist");
  const auto n = args.GetSize("n");
  const auto d = args.GetSize("d");
  const auto out = args.Get("out");
  if (!kind || !dist || !n || !d || !out) {
    return Fail("generate requires --kind --dist --n --d --out");
  }
  const uint64_t seed = args.GetSize("seed").value_or(1);
  Dataset data(1);
  if (*kind == "points") {
    auto parsed = ParsePointDistribution(*dist);
    if (!parsed.ok()) return FailStatus(parsed.status());
    GeneratorOptions options;
    options.range = args.GetDouble("range").value_or(10000.0);
    data = GeneratePoints(parsed.value(), *n, *d, seed, options);
  } else if (*kind == "weights") {
    auto parsed = ParseWeightDistribution(*dist);
    if (!parsed.ok()) return FailStatus(parsed.status());
    data = GenerateWeights(parsed.value(), *n, *d, seed);
  } else {
    return Fail("--kind must be points or weights");
  }
  const Status s = SaveDataset(*out, data);
  if (!s.ok()) return FailStatus(s);
  std::printf("wrote %zu x %zu-d vectors to %s (%zu bytes)\n", data.size(),
              data.dim(), out->c_str(), DatasetFileBytes(data));
  return 0;
}

int RunBuildIndex(const Args& args) {
  const auto points_path = args.Get("points");
  const auto weights_path = args.Get("weights");
  const auto out = args.Get("out");
  if (!points_path || !weights_path || !out) {
    return Fail("build-index requires --points --weights --out");
  }
  auto points = LoadDataset(*points_path);
  if (!points.ok()) return FailStatus(points.status());
  auto weights = LoadDataset(*weights_path);
  if (!weights.ok()) return FailStatus(weights.status());
  GirOptions options;
  options.partitions = args.GetSize("partitions").value_or(32);
  Result<GirIndex> index =
      args.Has("adaptive")
          ? BuildAdaptiveGir(points.value(), weights.value(), options)
          : GirIndex::Build(points.value(), weights.value(), options);
  if (!index.ok()) return FailStatus(index.status());
  const Status s = SaveGirIndex(*out, index.value());
  if (!s.ok()) return FailStatus(s);
  std::printf("indexed %zu points x %zu weights (n = %zu%s) -> %s\n",
              points.value().size(), weights.value().size(),
              options.partitions, args.Has("adaptive") ? ", adaptive" : "",
              out->c_str());
  return 0;
}

std::optional<std::vector<double>> ParseQueryVector(const std::string& text) {
  std::vector<double> values;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    char* end = nullptr;
    const std::string token = text.substr(pos, comma - pos);
    values.push_back(std::strtod(token.c_str(), &end));
    if (end == token.c_str()) return std::nullopt;
    pos = comma + 1;
  }
  if (values.empty()) return std::nullopt;
  return values;
}

/// Answers one rtk/rkr query on a local index (GirIndex, DynamicGirIndex
/// or ShardedGirIndex) and prints it, then the counters with `with_stats`.
/// Returns false for any other --type.
template <typename Index>
bool PrintAnswer(const Index& index, const std::string& type, ConstRow q,
                 size_t k, bool with_stats) {
  QueryStats stats;
  QueryStats* stats_ptr = with_stats ? &stats : nullptr;
  if (type == "rtk") {
    const ReverseTopKResult result = index.ReverseTopK(q, k, stats_ptr);
    std::printf("%zu matching preferences\n", result.size());
    for (VectorId id : result) std::printf("weight %u\n", id);
  } else if (type == "rkr") {
    for (const RankedWeight& entry : index.ReverseKRanks(q, k, stats_ptr)) {
      std::printf("weight %u rank %lld\n", entry.weight_id,
                  static_cast<long long>(entry.rank));
    }
  } else {
    return false;
  }
  if (with_stats) std::printf("# stats: %s\n", stats.ToString().c_str());
  return true;
}

int RunQuery(const Args& args) {
  const auto points_path = args.Get("points");
  const auto weights_path = args.Get("weights");
  const auto type = args.Get("type");
  const auto k = args.GetSize("k");
  if (!points_path || !weights_path || !type || !k) {
    return Fail("query requires --points --weights --type --k");
  }
  auto points = LoadDataset(*points_path);
  if (!points.ok()) return FailStatus(points.status());
  auto weights = LoadDataset(*weights_path);
  if (!weights.ok()) return FailStatus(weights.status());

  std::vector<double> q;
  if (const auto row = args.GetSize("query-row"); row.has_value()) {
    if (*row >= points.value().size()) return Fail("--query-row out of range");
    ConstRow r = points.value().row(*row);
    q.assign(r.begin(), r.end());
  } else if (const auto text = args.Get("query"); text.has_value()) {
    auto parsed = ParseQueryVector(*text);
    if (!parsed.has_value()) return Fail("cannot parse --query vector");
    q = std::move(*parsed);
  } else if (*type != "topk") {
    return Fail("query requires --query-row or --query");
  }
  if (!q.empty() && q.size() != points.value().dim()) {
    return Fail("query vector width does not match the dataset dimension");
  }

  if (*type == "topk") {
    const auto wrow = args.GetSize("weight-row").value_or(0);
    if (wrow >= weights.value().size()) return Fail("--weight-row out of range");
    auto top = TopK(points.value(), weights.value().row(wrow), *k);
    for (const auto& sp : top) {
      std::printf("point %u score %.6f\n", sp.id, sp.score);
    }
    return 0;
  }

  Result<GirIndex> index = Status::Internal("unset");
  if (const auto index_path = args.Get("index"); index_path.has_value()) {
    index = LoadGirIndex(*index_path, points.value(), weights.value());
  } else {
    index = GirIndex::Build(points.value(), weights.value());
  }
  if (!index.ok()) return FailStatus(index.status());
  if (!PrintAnswer(index.value(), *type, q, *k, args.Has("stats"))) {
    return Fail("--type must be rtk, rkr or topk");
  }
  return 0;
}

int RunInfo(const Args& args) {
  if (const auto dataset_path = args.Get("dataset"); dataset_path) {
    auto data = LoadDataset(*dataset_path);
    if (!data.ok()) return FailStatus(data.status());
    std::printf("dataset %s: %zu vectors, %zu dims, values in [%g, %g]\n",
                dataset_path->c_str(), data.value().size(),
                data.value().dim(), data.value().MinValue(),
                data.value().MaxValue());
    return 0;
  }
  const auto index_path = args.Get("index");
  const auto points_path = args.Get("points");
  const auto weights_path = args.Get("weights");
  if (!index_path || !points_path || !weights_path) {
    return Fail("info requires --dataset, or --index with --points/--weights");
  }
  auto points = LoadDataset(*points_path);
  if (!points.ok()) return FailStatus(points.status());
  auto weights = LoadDataset(*weights_path);
  if (!weights.ok()) return FailStatus(weights.status());
  auto index = LoadGirIndex(*index_path, points.value(), weights.value());
  if (!index.ok()) return FailStatus(index.status());
  std::printf(
      "index %s: n = %zu (%s grid), %zu points x %zu weights, "
      "in-memory %zu bytes\n",
      index_path->c_str(), index.value().options().partitions,
      index.value().grid().point_partitioner().is_uniform() ? "uniform"
                                                            : "adaptive",
      points.value().size(), weights.value().size(),
      index.value().MemoryBytes());
  const size_t tau_bytes = index.value().tau_index() != nullptr
                               ? index.value().tau_index()->MemoryBytes()
                               : 0;
  const size_t bmx_bytes = index.value().block_max() != nullptr
                               ? index.value().block_max()->MemoryBytes()
                               : 0;
  std::printf("  sections: base %zu, tau %zu, block-max %zu bytes\n",
              index.value().MemoryBytes() - tau_bytes - bmx_bytes, tau_bytes,
              bmx_bytes);
  return 0;
}

int RunTauBuild(const Args& args) {
  const auto points_path = args.Get("points");
  const auto weights_path = args.Get("weights");
  const auto out = args.Get("out");
  if (!points_path || !weights_path || !out) {
    return Fail("tau build requires --points --weights --out");
  }
  auto points = LoadDataset(*points_path);
  if (!points.ok()) return FailStatus(points.status());
  auto weights = LoadDataset(*weights_path);
  if (!weights.ok()) return FailStatus(weights.status());
  TauIndexOptions options;
  options.k_max = args.GetSize("k-max").value_or(options.k_max);
  options.bins = args.GetSize("bins").value_or(options.bins);
  options.threads = args.GetSize("threads").value_or(options.threads);
  const auto start = std::chrono::steady_clock::now();
  auto tau = TauIndex::Build(points.value(), weights.value(), options);
  if (!tau.ok()) return FailStatus(tau.status());
  const double build_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  const Status s = SaveTauIndex(*out, tau.value());
  if (!s.ok()) return FailStatus(s);
  std::printf(
      "tau index: %zu points x %zu weights, k_cap %zu, %zu bins, "
      "built in %.1f ms, %zu bytes in memory -> %s\n",
      tau.value().num_points(), tau.value().num_weights(),
      tau.value().k_cap(), tau.value().bins(), build_ms,
      tau.value().MemoryBytes(), out->c_str());
  return 0;
}

int RunTauQuery(const Args& args) {
  const auto points_path = args.Get("points");
  const auto weights_path = args.Get("weights");
  const auto tau_path = args.Get("tau");
  const auto type = args.Get("type");
  const auto k = args.GetSize("k");
  if (!points_path || !weights_path || !tau_path || !type || !k) {
    return Fail("tau query requires --points --weights --tau --type --k");
  }
  auto points = LoadDataset(*points_path);
  if (!points.ok()) return FailStatus(points.status());
  auto weights = LoadDataset(*weights_path);
  if (!weights.ok()) return FailStatus(weights.status());

  std::vector<double> q;
  if (const auto row = args.GetSize("query-row"); row.has_value()) {
    if (*row >= points.value().size()) return Fail("--query-row out of range");
    ConstRow r = points.value().row(*row);
    q.assign(r.begin(), r.end());
  } else if (const auto text = args.Get("query"); text.has_value()) {
    auto parsed = ParseQueryVector(*text);
    if (!parsed.has_value()) return Fail("cannot parse --query vector");
    q = std::move(*parsed);
  } else {
    return Fail("tau query requires --query-row or --query");
  }
  if (q.size() != points.value().dim()) {
    return Fail("query vector width does not match the dataset dimension");
  }

  auto tau = LoadTauIndex(*tau_path, weights.value());
  if (!tau.ok()) return FailStatus(tau.status());
  // Build() with scan_mode kTauIndex would re-score P x W; build with the
  // default mode (only the cheap grid quantization runs), then attach the
  // loaded τ-index and switch modes.
  auto index = GirIndex::Build(points.value(), weights.value());
  if (!index.ok()) return FailStatus(index.status());
  const Status attach = index.value().AttachTauIndex(
      std::make_shared<const TauIndex>(std::move(tau).value()));
  if (!attach.ok()) return FailStatus(attach);
  index.value().set_scan_mode(ScanMode::kTauIndex);
  if (!PrintAnswer(index.value(), *type, q, *k, args.Has("stats"))) {
    return Fail("--type must be rtk or rkr");
  }
  return 0;
}

int RunBatchQuery(const Args& args) {
  const auto points_path = args.Get("points");
  const auto weights_path = args.Get("weights");
  const auto type = args.Get("type");
  const auto k = args.GetSize("k");
  if (!points_path || !weights_path || !type || !k) {
    return Fail("batch-query requires --points --weights --type --k");
  }
  if (*type != "rtk" && *type != "rkr") {
    return Fail("--type must be rtk or rkr");
  }
  auto points = LoadDataset(*points_path);
  if (!points.ok()) return FailStatus(points.status());
  auto weights = LoadDataset(*weights_path);
  if (!weights.ok()) return FailStatus(weights.status());

  // The query block: either a dataset of its own, or a run of point rows.
  Dataset queries(points.value().dim());
  if (const auto queries_path = args.Get("queries"); queries_path) {
    auto loaded = LoadDataset(*queries_path);
    if (!loaded.ok()) return FailStatus(loaded.status());
    if (loaded.value().dim() != points.value().dim()) {
      return Fail("query dataset width does not match the point dimension");
    }
    queries = std::move(loaded).value();
  } else {
    const size_t begin = args.GetSize("query-row").value_or(0);
    const size_t count =
        args.GetSize("num-queries")
            .value_or(std::min<size_t>(64, points.value().size()));
    if (count == 0 || begin + count > points.value().size()) {
      return Fail("--query-row/--num-queries out of range");
    }
    for (size_t i = begin; i < begin + count; ++i) {
      queries.AppendUnchecked(points.value().row(i));
    }
  }

  auto index = GirIndex::Build(points.value(), weights.value());
  if (!index.ok()) return FailStatus(index.status());
  if (const auto tau_path = args.Get("tau"); tau_path) {
    auto tau = LoadTauIndex(*tau_path, weights.value());
    if (!tau.ok()) return FailStatus(tau.status());
    const Status attach = index.value().AttachTauIndex(
        std::make_shared<const TauIndex>(std::move(tau).value()));
    if (!attach.ok()) return FailStatus(attach);
    index.value().set_scan_mode(ScanMode::kTauIndex);
  } else {
    index.value().set_scan_mode(ScanMode::kBlocked);
  }

  const size_t threads = args.GetSize("threads").value_or(1);
  std::optional<ThreadPool> pool;
  if (threads > 1) pool.emplace(threads);
  ThreadPool* pool_ptr = pool.has_value() ? &*pool : nullptr;
  QueryStats stats;
  QueryStats* stats_ptr = args.Has("stats") ? &stats : nullptr;
  const size_t num_queries = queries.size();
  const auto start = std::chrono::steady_clock::now();
  std::vector<ReverseTopKResult> rtk_results;
  std::vector<ReverseKRanksResult> rkr_results;
  if (*type == "rtk") {
    rtk_results =
        index.value().ReverseTopKBatch(queries, *k, stats_ptr, pool_ptr);
  } else {
    rkr_results =
        index.value().ReverseKRanksBatch(queries, *k, stats_ptr, pool_ptr);
  }
  const double batch_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - start)
                              .count();

  if (*type == "rtk") {
    for (size_t qi = 0; qi < num_queries; ++qi) {
      std::printf("query %zu: %zu matching preferences\n", qi,
                  rtk_results[qi].size());
      if (args.Has("verbose")) {
        for (VectorId id : rtk_results[qi]) std::printf("  weight %u\n", id);
      }
    }
  } else {
    for (size_t qi = 0; qi < num_queries; ++qi) {
      std::printf("query %zu: %zu ranked preferences\n", qi,
                  rkr_results[qi].size());
      if (args.Has("verbose")) {
        for (const auto& entry : rkr_results[qi]) {
          std::printf("  weight %u rank %lld\n", entry.weight_id,
                      static_cast<long long>(entry.rank));
        }
      }
    }
  }
  std::printf("answered %zu queries in %.1f ms (%.1f queries/s, %s engine, "
              "%zu thread%s)\n",
              num_queries, batch_ms,
              batch_ms > 0.0 ? 1000.0 * static_cast<double>(num_queries) /
                                   batch_ms
                             : 0.0,
              index.value().options().scan_mode == ScanMode::kTauIndex
                  ? "tau"
                  : "blocked",
              threads, threads == 1 ? "" : "s");
  if (stats_ptr != nullptr) {
    std::printf("# stats: %s\n", stats.ToString().c_str());
  }
  return 0;
}

int RunTauInfo(const Args& args) {
  const auto tau_path = args.Get("tau");
  const auto weights_path = args.Get("weights");
  if (!tau_path || !weights_path) {
    return Fail("tau info requires --tau --weights");
  }
  auto weights = LoadDataset(*weights_path);
  if (!weights.ok()) return FailStatus(weights.status());
  auto tau = LoadTauIndex(*tau_path, weights.value());
  if (!tau.ok()) return FailStatus(tau.status());
  std::printf(
      "tau index %s: %zu points x %zu weights (%zu-d), k_cap %zu, "
      "%zu bins, in-memory %zu bytes\n",
      tau_path->c_str(), tau.value().num_points(), tau.value().num_weights(),
      tau.value().dim(), tau.value().k_cap(), tau.value().bins(),
      tau.value().MemoryBytes());
  return 0;
}

int RunTau(int argc, char** argv) {
  if (argc < 3) {
    return FailUsage("tau requires an action (build|query|info)");
  }
  const std::string action = argv[2];
  // Shift by one so Args' fixed "--flags start at index 2" skips the
  // action word.
  Args args(argc, argv, 3);
  if (!args.ok()) return Fail(args.error().c_str());
  if (action == "build") return RunTauBuild(args);
  if (action == "query") return RunTauQuery(args);
  if (action == "info") return RunTauInfo(args);
  return FailUsage("unknown tau action: " + action);
}

// ---- `update` — dynamic-index maintenance (grid/dynamic_index.h) ----------

void PrintDynamicSummary(const char* path, const DynamicGirIndex& index) {
  std::printf(
      "dynamic index %s: generation %llu, %zu live points x %zu live "
      "weights (%zu-d), churn %.1f%%%s\n",
      path, static_cast<unsigned long long>(index.generation()),
      index.live_point_count(), index.live_weight_count(), index.dim(),
      100.0 * index.ChurnFraction(), index.dirty() ? " (dirty)" : "");
}

int RunUpdateInit(const Args& args) {
  const auto points_path = args.Get("points");
  const auto weights_path = args.Get("weights");
  const auto out = args.Get("out");
  if (!points_path || !weights_path || !out) {
    return Fail("update init requires --points --weights --out");
  }
  auto points = LoadDataset(*points_path);
  if (!points.ok()) return FailStatus(points.status());
  auto weights = LoadDataset(*weights_path);
  if (!weights.ok()) return FailStatus(weights.status());
  DynamicIndexOptions options;
  options.gir.partitions = args.GetSize("partitions").value_or(32);
  const std::string mode = args.Get("scan-mode").value_or("blocked");
  if (mode == "wat") {
    options.gir.scan_mode = ScanMode::kWeightAtATime;
  } else if (mode == "blocked") {
    options.gir.scan_mode = ScanMode::kBlocked;
  } else if (mode == "tau") {
    options.gir.scan_mode = ScanMode::kTauIndex;
    options.gir.tau.k_max = args.GetSize("k-max").value_or(
        options.gir.tau.k_max);
    options.gir.tau.bins = args.GetSize("bins").value_or(options.gir.tau.bins);
  } else {
    return Fail("--scan-mode must be wat, blocked or tau");
  }
  options.compact_threshold =
      args.GetDouble("compact-threshold").value_or(options.compact_threshold);
  options.auto_compact = !args.Has("no-auto-compact");
  auto index = DynamicGirIndex::Build(points.value(), weights.value(), options);
  if (!index.ok()) return FailStatus(index.status());
  const Status s = SaveDynamicIndex(*out, index.value());
  if (!s.ok()) return FailStatus(s);
  PrintDynamicSummary(out->c_str(), index.value());
  return 0;
}

int RunUpdateMutate(const Args& args, const std::string& action) {
  const auto index_path = args.Get("index");
  if (!index_path) return Fail("update requires --index");
  auto loaded = LoadDynamicIndex(*index_path);
  if (!loaded.ok()) return FailStatus(loaded.status());
  DynamicGirIndex index = std::move(loaded).value();

  if (action == "compact") {
    const Status s = index.Compact();
    if (!s.ok()) return FailStatus(s);
  } else {
    const std::string kind = args.Get("kind").value_or("point");
    if (kind != "point" && kind != "weight") {
      return Fail("--kind must be point or weight");
    }
    if (action == "insert") {
      const auto text = args.Get("values");
      if (!text) return Fail("update insert requires --values v1,v2,...");
      auto values = ParseQueryVector(*text);
      if (!values.has_value()) return Fail("cannot parse --values vector");
      ConstRow row(values->data(), values->size());
      const Status s =
          kind == "point" ? index.InsertPoint(row) : index.InsertWeight(row);
      if (!s.ok()) return FailStatus(s);
    } else {  // delete
      const auto id = args.GetSize("id");
      if (!id) return Fail("update delete requires --id");
      const VectorId live_id = static_cast<VectorId>(*id);
      const Status s = kind == "point" ? index.DeletePoint(live_id)
                                       : index.DeleteWeight(live_id);
      if (!s.ok()) return FailStatus(s);
    }
  }
  const std::string out = args.Get("out").value_or(*index_path);
  const Status s = SaveDynamicIndex(out, index);
  if (!s.ok()) return FailStatus(s);
  PrintDynamicSummary(out.c_str(), index);
  return 0;
}

int RunUpdateInfo(const Args& args) {
  const auto index_path = args.Get("index");
  if (!index_path) return Fail("update info requires --index");
  auto loaded = LoadDynamicIndex(*index_path);
  if (!loaded.ok()) return FailStatus(loaded.status());
  const DynamicGirIndex& index = loaded.value();
  PrintDynamicSummary(index_path->c_str(), index);
  std::printf(
      "  base %zu points x %zu weights, delta +%zu points +%zu weights, "
      "compact at %.0f%% churn (%s)\n",
      index.base_points().size(), index.base_weights().size(),
      index.delta_points().size(), index.delta_weights().size(),
      100.0 * index.options().compact_threshold,
      index.options().auto_compact ? "auto" : "manual");
  const DynamicGirIndex::MemoryBreakdown mb = index.MemoryBytes();
  std::printf(
      "  sections: base %zu, tau %zu, block-max %zu, tombstone bitmaps %zu, "
      "deltas %zu bytes (total %zu)\n",
      mb.base_bytes, mb.tau_bytes, mb.block_max_bytes, mb.bitmap_bytes,
      mb.delta_bytes, mb.total());
  return 0;
}

int RunUpdateQuery(const Args& args) {
  const auto index_path = args.Get("index");
  const auto type = args.Get("type");
  const auto k = args.GetSize("k");
  const auto text = args.Get("query");
  if (!index_path || !type || !k || !text) {
    return Fail("update query requires --index --type --k --query v1,v2,...");
  }
  auto loaded = LoadDynamicIndex(*index_path);
  if (!loaded.ok()) return FailStatus(loaded.status());
  const DynamicGirIndex& index = loaded.value();
  auto q = ParseQueryVector(*text);
  if (!q.has_value()) return Fail("cannot parse --query vector");
  if (q->size() != index.dim()) {
    return Fail("query vector width does not match the index dimension");
  }
  if (!PrintAnswer(index, *type, ConstRow(q->data(), q->size()), *k,
                   args.Has("stats"))) {
    return Fail("--type must be rtk or rkr");
  }
  return 0;
}

int RunUpdate(int argc, char** argv) {
  if (argc < 3) {
    return FailUsage(
        "update requires an action (init|insert|delete|compact|info|query)");
  }
  const std::string action = argv[2];
  // Shift by one so Args' fixed "--flags start at index 2" skips the
  // action word.
  Args args(argc, argv, 3);
  if (!args.ok()) return Fail(args.error().c_str());
  if (action == "init") return RunUpdateInit(args);
  if (action == "insert" || action == "delete" || action == "compact") {
    return RunUpdateMutate(args, action);
  }
  if (action == "info") return RunUpdateInfo(args);
  if (action == "query") return RunUpdateQuery(args);
  return FailUsage("unknown update action: " + action);
}

// ---- `shard` — sharded router maintenance (grid/sharded_index.h) -----------

int RunShardInit(const Args& args) {
  const auto points_path = args.Get("points");
  const auto weights_path = args.Get("weights");
  const auto out = args.Get("out");
  const auto shards = args.GetSize("shards");
  if (!points_path || !weights_path || !out || !shards) {
    return Fail("shard init requires --points --weights --out --shards");
  }
  auto points = LoadDataset(*points_path);
  if (!points.ok()) return FailStatus(points.status());
  auto weights = LoadDataset(*weights_path);
  if (!weights.ok()) return FailStatus(weights.status());
  ShardedIndexOptions options;
  options.shards = *shards;
  options.dynamic.gir.partitions = args.GetSize("partitions").value_or(32);
  const std::string mode = args.Get("scan-mode").value_or("blocked");
  if (mode == "wat") {
    options.dynamic.gir.scan_mode = ScanMode::kWeightAtATime;
  } else if (mode == "blocked") {
    options.dynamic.gir.scan_mode = ScanMode::kBlocked;
  } else if (mode == "tau") {
    options.dynamic.gir.scan_mode = ScanMode::kTauIndex;
  } else {
    return Fail("--scan-mode must be wat, blocked or tau");
  }
  auto index =
      ShardedGirIndex::Build(points.value(), weights.value(), options);
  if (!index.ok()) return FailStatus(index.status());
  const Status s = SaveShardedIndex(*out, *index.value());
  if (!s.ok()) return FailStatus(s);
  std::printf("sharded index %s: %zu shard(s), %zu points x %zu weights\n",
              out->c_str(), index.value()->shard_count(),
              index.value()->live_point_count(),
              index.value()->live_weight_count());
  return 0;
}

int RunShardInfo(const Args& args) {
  const auto index_path = args.Get("index");
  if (!index_path) return Fail("shard info requires --index");
  auto loaded = LoadShardedIndex(*index_path);
  if (!loaded.ok()) return FailStatus(loaded.status());
  const ShardedGirIndex& index = *loaded.value();
  std::printf(
      "sharded index %s: %zu shard(s), sequence %llu, %zu live points x "
      "%zu live weights (%zu-d)%s\n",
      index_path->c_str(), index.shard_count(),
      static_cast<unsigned long long>(index.sequence()),
      index.live_point_count(), index.live_weight_count(), index.dim(),
      index.dirty() ? " (dirty)" : "");
  for (size_t s = 0; s < index.shard_count(); ++s) {
    const DynamicGirIndex& shard = index.shard(s);
    std::printf(
        "  shard %zu: generation %llu, %zu live weights, churn %.1f%%%s\n",
        s, static_cast<unsigned long long>(shard.generation()),
        shard.live_weight_count(), 100.0 * shard.ChurnFraction(),
        shard.dirty() ? " (dirty)" : "");
  }
  return 0;
}

int RunShardQuery(const Args& args) {
  const auto index_path = args.Get("index");
  const auto type = args.Get("type");
  const auto k = args.GetSize("k");
  const auto text = args.Get("query");
  if (!index_path || !type || !k || !text) {
    return Fail("shard query requires --index --type --k --query v1,v2,...");
  }
  auto loaded = LoadShardedIndex(*index_path);
  if (!loaded.ok()) return FailStatus(loaded.status());
  const ShardedGirIndex& index = *loaded.value();
  auto q = ParseQueryVector(*text);
  if (!q.has_value()) return Fail("cannot parse --query vector");
  if (q->size() != index.dim()) {
    return Fail("query vector width does not match the index dimension");
  }
  if (!PrintAnswer(index, *type, ConstRow(q->data(), q->size()), *k,
                   args.Has("stats"))) {
    return Fail("--type must be rtk or rkr");
  }
  return 0;
}

/// `shard split`: explodes a GIRSHD01 envelope into one GIRDYN01 file
/// per lane (PREFIX.laneN.gir), each servable standalone via `gir_serve
/// --index`. (`gir_serve --shard-lane` serves a lane straight from the
/// envelope without splitting.) The manifest — owner map, sequence,
/// insert counter — stays with the envelope; gir_router reads it there.
int RunShardSplit(const Args& args) {
  const auto index_path = args.Get("index");
  const auto prefix = args.Get("out-prefix");
  if (!index_path || !prefix) {
    return Fail("shard split requires --index --out-prefix");
  }
  auto manifest = LoadShardedManifest(*index_path);
  if (!manifest.ok()) return FailStatus(manifest.status());
  for (uint32_t lane = 0; lane < manifest.value().shard_count; ++lane) {
    auto part = LoadShardLane(*index_path, lane);
    if (!part.ok()) return FailStatus(part.status());
    const std::string out =
        *prefix + ".lane" + std::to_string(lane) + ".gir";
    const Status saved = SaveDynamicIndex(out, part.value());
    if (!saved.ok()) return FailStatus(saved);
    std::printf("lane %u -> %s: %zu live points x %zu live weights\n", lane,
                out.c_str(), part.value().live_point_count(),
                part.value().live_weight_count());
  }
  std::printf(
      "split %s: %u lane(s), sequence %llu, %llu live points x %llu "
      "weights\n",
      index_path->c_str(), manifest.value().shard_count,
      static_cast<unsigned long long>(manifest.value().sequence),
      static_cast<unsigned long long>(manifest.value().live_points),
      static_cast<unsigned long long>(manifest.value().owner.size()));
  return 0;
}

int RunShard(int argc, char** argv) {
  if (argc < 3) {
    return FailUsage("shard requires an action (init|info|split|query)");
  }
  const std::string action = argv[2];
  // Shift by one so Args' fixed "--flags start at index 2" skips the
  // action word.
  Args args(argc, argv, 3);
  if (!args.ok()) return Fail(args.error().c_str());
  if (action == "init") return RunShardInit(args);
  if (action == "info") return RunShardInfo(args);
  if (action == "split") return RunShardSplit(args);
  if (action == "query") return RunShardQuery(args);
  return FailUsage("unknown shard action: " + action);
}

// ---- `remote` — talk to a running gir_serve (server/client.h) --------------

/// Renders a STATS payload: server-wide `key value` lines pass through
/// verbatim; the `shardN.<key> <value>` rows a sharded server appends are
/// folded into one table row per shard.
void PrintRemoteStats(const std::string& text) {
  struct ShardRow {
    std::map<std::string, std::string> values;
  };
  std::map<size_t, ShardRow> shards;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    size_t id = 0;
    size_t dot = std::string::npos;
    if (line.rfind("shard", 0) == 0 &&
        (dot = line.find('.')) != std::string::npos && dot > 5) {
      id = static_cast<size_t>(
          std::strtoull(line.c_str() + 5, nullptr, 10));
      const size_t space = line.find(' ', dot);
      if (space != std::string::npos) {
        shards[id].values[line.substr(dot + 1, space - dot - 1)] =
            line.substr(space + 1);
        continue;
      }
    }
    if (!line.empty()) std::printf("%s\n", line.c_str());
  }
  if (shards.empty()) return;
  std::printf("%-5s %12s %10s %6s %10s %8s %9s %9s %7s\n", "shard",
              "applied_seq", "generation", "queue", "live_w", "queries",
              "qps_share", "p99_us", "muts");
  for (const auto& [id, row] : shards) {
    const auto field = [&](const char* key) -> std::string {
      auto it = row.values.find(key);
      return it == row.values.end() ? "-" : it->second;
    };
    std::printf("%-5zu %12s %10s %6s %10s %8s %8s%% %9s %7s\n", id,
                field("applied_seq").c_str(), field("generation").c_str(),
                field("queue_depth").c_str(), field("live_weights").c_str(),
                field("queries").c_str(), field("qps_share_pct").c_str(),
                field("latency_p99_us_le").c_str(),
                field("mutations").c_str());
  }
}

/// `remote stats --json`: the snapshot as one single-line JSON object.
/// Every `key value` line (server-wide, shardN.* and histogram rows
/// alike) becomes one field; numeric values stay numbers, anything else
/// is emitted as a string. Reuses the bench JsonRecord so the line shape
/// (and its provenance stamps) matches the BENCH_*.json logs scrapers
/// already parse.
void PrintRemoteStatsJson(const std::string& text) {
  bench::JsonRecord record("remote_stats", ReadBenchScale());
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos || space == 0 ||
        space + 1 >= line.size()) {
      continue;
    }
    const std::string key = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    char* end = nullptr;
    const double number = std::strtod(value.c_str(), &end);
    if (end != value.c_str() && *end == '\0') {
      record.Add(key, number);
    } else {
      record.Add(key, value);
    }
  }
  std::printf("%s\n", record.ToString().c_str());
}

int RunRemoteQuery(RemoteClient& client, const Args& args) {
  const auto type = args.Get("type");
  const auto k = args.GetSize("k");
  const auto text = args.Get("query");
  if (!type || !k || !text) {
    return Fail("remote query requires --type --k --query v1,v2,...");
  }
  auto q = ParseQueryVector(*text);
  if (!q.has_value()) return Fail("cannot parse --query vector");
  ConstRow row(q->data(), q->size());
  if (*type == "rtk") {
    auto result = client.ReverseTopK(row, static_cast<uint32_t>(*k));
    if (!result.ok()) return FailStatus(result.status());
    std::printf("%zu matching preferences (index version %llu)\n",
                result.value().size(),
                static_cast<unsigned long long>(client.last_index_version()));
    for (VectorId id : result.value()) std::printf("weight %u\n", id);
  } else if (*type == "rkr") {
    auto result = client.ReverseKRanks(row, static_cast<uint32_t>(*k));
    if (!result.ok()) return FailStatus(result.status());
    for (const auto& entry : result.value()) {
      std::printf("weight %u rank %lld\n", entry.weight_id,
                  static_cast<long long>(entry.rank));
    }
  } else {
    return Fail("--type must be rtk or rkr");
  }
  return 0;
}

int RunRemoteMutate(RemoteClient& client, const Args& args,
                    const std::string& action) {
  const std::string kind = args.Get("kind").value_or("point");
  if (kind != "point" && kind != "weight") {
    return Fail("--kind must be point or weight");
  }
  Status s = Status::OK();
  if (action == "insert") {
    const auto text = args.Get("values");
    if (!text) return Fail("remote insert requires --values v1,v2,...");
    auto values = ParseQueryVector(*text);
    if (!values.has_value()) return Fail("cannot parse --values vector");
    ConstRow row(values->data(), values->size());
    s = kind == "point" ? client.InsertPoint(row) : client.InsertWeight(row);
  } else {  // delete
    const auto id = args.GetSize("id");
    if (!id) return Fail("remote delete requires --id");
    s = kind == "point" ? client.DeletePoint(*id) : client.DeleteWeight(*id);
  }
  if (!s.ok()) return FailStatus(s);
  std::printf("%s %s (index version %llu)\n",
              action == "insert" ? "inserted" : "deleted", kind.c_str(),
              static_cast<unsigned long long>(client.last_index_version()));
  return 0;
}

int RunRemote(int argc, char** argv) {
  if (argc < 3) {
    return FailUsage(
        "remote requires an action "
        "(ping|info|stats|query|insert|delete|compact)");
  }
  const std::string action = argv[2];
  // Shift by one so Args' fixed "--flags start at index 2" skips the
  // action word.
  Args args(argc, argv, 3);
  if (!args.ok()) return Fail(args.error().c_str());
  if (action != "ping" && action != "info" && action != "stats" &&
      action != "query" && action != "insert" && action != "delete" &&
      action != "compact") {
    return FailUsage("unknown remote action: " + action);
  }
  const auto port = args.GetSize("port");
  if (!port || *port == 0 || *port > 65535) {
    return Fail("remote requires --port (1-65535)");
  }
  const std::string host = args.Get("host").value_or("127.0.0.1");
  RemoteClientOptions client_options;
  if (const auto timeout = args.GetSize("timeout-ms"); timeout) {
    // One knob covers both phases: connect deadline and per-call socket
    // send/recv timeouts, so a wedged server fails the CLI in bounded
    // time instead of hanging it.
    client_options.connect_ms = static_cast<uint32_t>(*timeout);
    client_options.io_ms = static_cast<uint32_t>(*timeout);
  }
  auto connected = RemoteClient::Connect(host, static_cast<uint16_t>(*port),
                                         client_options);
  if (!connected.ok()) return FailStatus(connected.status());
  RemoteClient client = std::move(connected).value();
  if (const auto deadline = args.GetSize("deadline-us"); deadline) {
    client.set_deadline_us(static_cast<uint32_t>(*deadline));
  }

  if (action == "ping") {
    const Status s = client.Ping();
    if (!s.ok()) return FailStatus(s);
    std::printf("pong (index version %llu)\n",
                static_cast<unsigned long long>(client.last_index_version()));
    return 0;
  }
  if (action == "info") {
    auto info = client.Info();
    if (!info.ok()) return FailStatus(info.status());
    std::printf(
        "remote index %s:%zu: generation %llu, %llu live points x %llu live "
        "weights (%u-d), scan mode %u%s, version %llu\n",
        host.c_str(), *port,
        static_cast<unsigned long long>(info.value().generation),
        static_cast<unsigned long long>(info.value().live_points),
        static_cast<unsigned long long>(info.value().live_weights),
        info.value().dim, info.value().scan_mode,
        info.value().dirty != 0 ? " (dirty)" : "",
        static_cast<unsigned long long>(client.last_index_version()));
    return 0;
  }
  if (action == "stats") {
    auto stats = client.Stats();
    if (!stats.ok()) return FailStatus(stats.status());
    if (args.Get("json").has_value()) {
      PrintRemoteStatsJson(stats.value());
    } else {
      PrintRemoteStats(stats.value());
    }
    return 0;
  }
  if (action == "compact") {
    const Status s = client.Compact();
    if (!s.ok()) return FailStatus(s);
    std::printf("compacted (index version %llu)\n",
                static_cast<unsigned long long>(client.last_index_version()));
    return 0;
  }
  if (action == "query") return RunRemoteQuery(client, args);
  return RunRemoteMutate(client, args, action);
}

int Run(int argc, char** argv) {
  if (argc < 2) {
    return FailUsage("missing command");
  }
  const std::string command = argv[1];
  // `tau`, `update` and `remote` carry an action word Args would reject;
  // dispatch them first.
  if (command == "tau") return RunTau(argc, argv);
  if (command == "update") return RunUpdate(argc, argv);
  if (command == "shard") return RunShard(argc, argv);
  if (command == "remote") return RunRemote(argc, argv);
  Args args(argc, argv, 2);
  if (!args.ok()) return Fail(args.error().c_str());
  if (command == "generate") return RunGenerate(args);
  if (command == "build-index") return RunBuildIndex(args);
  if (command == "query") return RunQuery(args);
  if (command == "batch-query") return RunBatchQuery(args);
  if (command == "info") return RunInfo(args);
  return FailUsage("unknown command: " + command);
}

}  // namespace
}  // namespace gir

int main(int argc, char** argv) { return gir::Run(argc, argv); }
