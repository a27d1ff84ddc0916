#include "trace.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <map>
#include <sstream>

#include "checker.h"
#include "core/counters.h"
#include "io/wal.h"
#include "phase.h"
#include "report.h"
#include "server/metrics.h"
#include "server/result_cache.h"
#include "stacks.h"
#include "stats/model.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double Us(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// One layer-boundary span. `parent` indexes the span of the layer above
/// for the same op (recorded by an earlier pass), -1 at the top.
struct Span {
  const char* name;
  Clock::time_point start;
  Clock::time_point end;
  int64_t parent;
  uint64_t op;
};

class Tracer {
 public:
  int64_t Add(const char* name, Clock::time_point start, Clock::time_point end,
              int64_t parent, uint64_t op) {
    spans_.push_back({name, start, end, parent, op});
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  bool Write(const std::string& path) const {
    std::ofstream out(path);
    out << std::fixed << std::setprecision(3);
    for (const Span& s : spans_) {
      out << "{\"name\": \"" << s.name << "\", \"start_us\": "
          << Us(epoch_, s.start) << ", \"end_us\": " << Us(epoch_, s.end)
          << ", \"parent\": " << s.parent << ", \"op_id\": " << s.op << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

/// Sum of the values of every `key value` line of STATS renderings (one
/// rendering has each key once; several lane servers' renderings can be
/// concatenated).
double StatSum(const std::string& text, const std::string& key) {
  double sum = 0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + " ", 0) == 0) {
      sum += std::strtod(line.c_str() + key.size() + 1, nullptr);
    }
  }
  return sum;
}

/// Sum of `shardN.<field>` over the shard rows of a router rendering.
double SumShardStat(const std::string& text, const std::string& field) {
  double sum = 0;
  for (size_t s = 0; s < gir::ShardedGirIndex::kMaxShards; ++s) {
    sum += StatSum(text, "shard" + std::to_string(s) + "." + field);
  }
  return sum;
}

/// Engine work of the lane-level query calls.
struct EngineWork {
  gir::QueryStats stats;
  double pairs = 0;  // |P_live| x |W_lane| summed over lane calls
  size_t queries = 0;
};

/// Everything the passes learn, per op id (main + tail ops; the hot-read
/// warmup is set-up and has no id). NaN = not measured for that op.
struct OpTimes {
  explicit OpTimes(size_t n)
      : kind(n),
        hit(n, false),
        e2e(n, std::nan("")),
        upper(n, std::nan("")),
        below(n, std::nan("")),
        lane(n, std::nan("")),
        nowal(n, std::nan("")),
        oracle(n, std::nan("")),
        wal(n, std::nan("")),
        lookup(n, std::nan("")),
        invalidate(n, std::nan("")),
        span_e2e(n, -1),
        span_upper(n, -1),
        span_below(n, -1) {}
  std::vector<OpKind> kind;
  std::vector<bool> hit;
  std::vector<double> e2e;     // client RTT, traced pass
  std::vector<double> upper;   // ShardedGirIndex call, or DistRouter call
  std::vector<double> below;   // routed: slowest direct shard RPC
  std::vector<double> lane;    // queries: slowest lane DynamicGirIndex call
  std::vector<double> nowal;   // durable: no-WAL ShardedGirIndex mutation
  std::vector<double> oracle;  // single DynamicGirIndex mutation
  std::vector<double> wal;     // durable: ShardedWal append
  std::vector<double> lookup;  // twin cache lookup
  std::vector<double> invalidate;  // twin cache invalidation pass
  std::vector<int64_t> span_e2e, span_upper, span_below;
};

/// Per-op differences (a - b) where both are measured and `keep` holds.
template <typename Keep>
std::vector<double> Diff(const std::vector<double>& a,
                         const std::vector<double>& b, Keep keep) {
  std::vector<double> out;
  for (size_t i = 0; i < a.size(); ++i) {
    if (keep(i) && std::isfinite(a[i]) && std::isfinite(b[i])) {
      out.push_back(a[i] - b[i]);
    }
  }
  return out;
}

template <typename Keep>
std::vector<double> Pick(const std::vector<double>& a, Keep keep) {
  std::vector<double> out;
  for (size_t i = 0; i < a.size(); ++i) {
    if (keep(i) && std::isfinite(a[i])) out.push_back(a[i]);
  }
  return out;
}

class TracedRun {
 public:
  TracedRun(const WorkloadSpec& spec, uint64_t seed, std::string dir)
      : spec_(spec),
        seed_(seed),
        dir_(std::move(dir)),
        inputs_(MakeInputs(spec, seed)),
        files_(dir_ + "/files") {}

  int Run(const std::string& trace_out);

 private:
  /// A fresh op sequence positioned after the prelude.
  OpSequence Sequence() const {
    OpSequence seq(spec_, seed_, inputs_);
    seq.Prelude();
    return seq;
  }
  /// The ops of the traced run after the warmup (main + tail).
  std::vector<Op> TimedOps() const {
    OpSequence seq = Sequence();
    std::vector<Op> ops;
    for (size_t i = 0; i < spec_.trace_ops; ++i) ops.push_back(seq.NextMain());
    for (Op& op : seq.Tail()) ops.push_back(std::move(op));
    return ops;
  }
  std::string PassDir(const char* name) const { return dir_ + "/" + name; }
  bool Routed() const { return spec_.workload == Workload::kRouted; }
  bool Durable() const { return spec_.workload == Workload::kDurableChurn; }

  gir::Status ClientPass(bool traced, PhaseResult* out);
  gir::Status ShardedPass();
  gir::Status NoWalPass();
  gir::Status WalPass();
  gir::Status DistPass();
  gir::Status DirectPass();
  void LaneQueries(size_t i, const Op& op,
                   const std::vector<const gir::DynamicGirIndex*>& lanes,
                   const std::vector<int64_t>& parents);
  /// Records (mis)matches of a pass's answers against the oracle.
  void CheckPass(const char* pass, const Records& got, bool versions);
  Metrics Assemble(const PhaseResult& untraced, const PhaseResult& traced,
                   const OracleTimings& oracle);

  const WorkloadSpec spec_;
  const uint64_t seed_;
  const std::string dir_;
  const Inputs inputs_;
  const std::string files_;
  std::vector<Op> ops_;
  Records expected_;  // oracle records: warmup, then the timed ops
  size_t warmup_ = 0;

  Tracer tracer_;
  OpTimes t_{0};
  EngineWork rtk_work_, rkr_work_;
  std::map<std::string, double> values_;
  size_t mismatches_ = 0;
  size_t pass_errors_ = 0;
  std::string first_problem_;
};

gir::Status TracedRun::ClientPass(bool traced, PhaseResult* out) {
  const std::string dir = PassDir(traced ? "client" : "client_untraced");
  gir::Status s = CopyTree(files_, dir);
  if (!s.ok()) return s;
  auto booted = BootClientStack(spec_, inputs_, dir);
  if (!booted.ok()) return booted.status();
  ClientStack stack = std::move(booted).value();
  OpSequence seq = Sequence();
  Records warmup;
  s = WarmupPool(stack.client(), seq.Warmup(), spec_.k, &warmup);
  if (!s.ok()) return s;
  const std::unique_ptr<Target> target = ClientTarget(&stack.client());
  std::vector<Clock::time_point> starts;
  *out = RunPhase(*target, seq, spec_, spec_.trace_ops, 0, std::move(warmup),
                  traced ? &starts : nullptr);
  if (!traced) return gir::Status::OK();

  for (size_t i = 0; i < ops_.size(); ++i) {
    const size_t r = warmup_ + i;
    t_.e2e[i] = out->op_us[r];
    t_.hit[i] = out->records[r].cache_hit;
    const auto end = starts[i] + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double, std::micro>(
                                         out->op_us[r]));
    t_.span_e2e[i] = tracer_.Add("client", starts[i], end, -1, i);
  }
  // Server-side counters of the traced stack.
  std::string server_stats;
  if (stack.served) {
    server_stats = stack.served->server->metrics().Render();
    stack.served->index->WaitBackgroundIdle();
    double bg = 0;
    for (const auto& shard : stack.served->index->ShardStats()) {
      bg += static_cast<double>(shard.bg_compactions);
    }
    values_["sharded.bg_compactions"] = bg;
  } else {
    const std::string router = stack.routed->router->RenderStats();
    values_["router.rpcs_per_op"] =
        SumShardStat(router, "requests") / static_cast<double>(ops_.size());
    values_["router.retries"] = SumShardStat(router, "retries");
    values_["router.degraded"] = StatSum(router, "router.degraded_queries") +
                                 StatSum(router, "router.degraded_mutations");
    for (const auto& lane : stack.routed->lane_servers) {
      server_stats += lane->metrics().Render();
    }
  }
  auto sum = [&](const char* key) { return StatSum(server_stats, key); };
  const double hits = sum("cache_hits");
  const double misses = sum("cache_misses");
  values_["cache.hit_rate"] = hits + misses > 0 ? hits / (hits + misses) : 0;
  const double batches = sum("batches_dispatched");
  values_["server.batch_rows"] =
      batches > 0 ? (sum("queries_completed") - hits) / batches : 0;
  return gir::Status::OK();
}

void TracedRun::LaneQueries(
    size_t i, const Op& op,
    const std::vector<const gir::DynamicGirIndex*>& lanes,
    const std::vector<int64_t>& parents) {
  EngineWork& work = op.kind == OpKind::kRtk ? rtk_work_ : rkr_work_;
  ++work.queries;
  double slowest = 0;
  for (size_t s = 0; s < lanes.size(); ++s) {
    gir::QueryStats qs;
    const Clock::time_point t0 = Clock::now();
    if (op.kind == OpKind::kRtk) {
      lanes[s]->ReverseTopK(op.row, spec_.k, &qs);
    } else {
      lanes[s]->ReverseKRanks(op.row, spec_.k, &qs);
    }
    const Clock::time_point t1 = Clock::now();
    tracer_.Add("lane", t0, t1, parents[s], i);
    slowest = std::max(slowest, Us(t0, t1));
    work.stats += qs;
    work.pairs += static_cast<double>(lanes[s]->live_point_count()) *
                  static_cast<double>(lanes[s]->live_weight_count());
  }
  t_.lane[i] = slowest;
}

gir::Status TracedRun::ShardedPass() {
  std::unique_ptr<ServedStack> stack;
  if (Durable()) {
    const std::string dir = PassDir("sharded");
    gir::Status s = CopyTree(files_, dir);
    if (!s.ok()) return s;
    auto r = RestartDurable(spec_, dir, /*serve=*/false, /*attach_wal=*/true);
    if (!r.ok()) return r.status();
    stack = std::move(r).value();
    values_["io.wal_read_s"] = stack->io.wal_read_s;
    values_["io.wal_replay_s"] = stack->io.wal_replay_s;
  } else {
    stack = std::make_unique<ServedStack>();
    const Clock::time_point t0 = Clock::now();
    auto r = gir::ShardedGirIndex::Build(inputs_.points, inputs_.weights,
                                         IndexOptions(spec_));
    if (!r.ok()) return r.status();
    stack->index = std::move(r).value();
    stack->io.build_s = Us(t0, Clock::now()) / 1e6;
  }
  values_["io.build_s"] = stack->io.build_s;
  gir::ShardedGirIndex& index = *stack->index;

  // The server's result cache, driven from outside with what the server
  // would feed it: lookups at the current sequence, fills after misses,
  // one invalidation pass per mutation with the index's probe data.
  gir::ServerMetrics twin_metrics;
  gir::ResultCache twin(gir::ResultCacheOptions{}, 1, &twin_metrics);

  Records records;
  OpSequence seq = Sequence();
  const std::vector<Op> warm = seq.Warmup();
  if (!warm.empty()) {
    gir::Dataset pool(spec_.dim);
    for (size_t i = 0; i < spec_.pool; ++i) pool.AppendUnchecked(warm[i].row);
    uint64_t version = 0;
    const auto rtk = index.ReverseTopKBatch(pool, spec_.k, nullptr, &version);
    const auto rkr = index.ReverseKRanksBatch(pool, spec_.k, nullptr, &version);
    for (size_t i = 0; i < spec_.pool; ++i) {
      twin.FillTopK(pool.row(i), spec_.k, version, rtk[i]);
      records.push_back({DigestAnswer(rtk[i]), version, kStatusOk,
                         OpKind::kRtk, false});
    }
    for (size_t i = 0; i < spec_.pool; ++i) {
      twin.FillKRanks(pool.row(i), spec_.k, version, rkr[i]);
      records.push_back({DigestAnswer(rkr[i]), version, kStatusOk,
                         OpKind::kRkr, false});
    }
  }

  auto quiesce = [&] {
    index.WaitBackgroundIdle();
    index.Quiesce();
  };
  quiesce();
  uint64_t generations = 0;
  for (size_t s = 0; s < index.shard_count(); ++s) {
    generations += index.shard(s).generation();
  }
  for (size_t i = 0; i < ops_.size(); ++i) {
    const Op& op = ops_[i];
    OpOutcome o;
    o.kind = op.kind;
    Clock::time_point t0, t1;
    if (IsQuery(op.kind)) {
      const uint64_t snap = index.sequence();
      gir::ReverseTopKResult rtk;
      gir::ReverseKRanksResult rkr;
      const Clock::time_point l0 = Clock::now();
      const bool hit = op.kind == OpKind::kRtk
                           ? twin.LookupTopK(op.row, spec_.k, snap, &rtk)
                           : twin.LookupKRanks(op.row, spec_.k, snap, &rkr);
      t_.lookup[i] = Us(l0, Clock::now());
      t0 = Clock::now();
      if (op.kind == OpKind::kRtk) {
        rtk = index.ReverseTopK(op.row, spec_.k, nullptr, &o.version);
      } else {
        rkr = index.ReverseKRanks(op.row, spec_.k, nullptr, &o.version);
      }
      t1 = Clock::now();
      o.digest = op.kind == OpKind::kRtk ? DigestAnswer(rtk) : DigestAnswer(rkr);
      if (!hit && op.kind == OpKind::kRtk) {
        twin.FillTopK(op.row, spec_.k, o.version, rtk);
      } else if (!hit) {
        twin.FillKRanks(op.row, spec_.k, o.version, rkr);
      }
    } else {
      uint64_t seq_no = 0;
      uint32_t band = 0;
      std::vector<double> head;
      gir::Status status;
      t0 = Clock::now();
      switch (op.kind) {
        case OpKind::kInsertPoint:
          status = index.InsertPoint(op.row, &seq_no, &band);
          break;
        case OpKind::kDeletePoint:
          status = index.DeletePoint(op.id, &seq_no, &band);
          break;
        case OpKind::kInsertWeight:
          status = index.InsertWeight(op.row, &seq_no, &head);
          break;
        default:
          status = index.DeleteWeight(op.id, &seq_no);
          break;
      }
      t1 = Clock::now();
      o.version = seq_no;
      if (!status.ok()) o.status = kStatusError;
      const Clock::time_point c0 = Clock::now();
      switch (op.kind) {
        case OpKind::kInsertPoint:
        case OpKind::kDeletePoint:
          twin.OnPointMutation(seq_no, band);
          break;
        case OpKind::kInsertWeight:
          twin.OnWeightInsert(seq_no, op.row, head);
          break;
        default:
          twin.OnWeightDelete(seq_no, op.id);
          break;
      }
      t_.invalidate[i] = Us(c0, Clock::now());
    }
    t_.upper[i] = Us(t0, t1);
    t_.span_upper[i] = tracer_.Add("sharded", t0, t1, t_.span_e2e[i], i);
    records.push_back(o);
    if (IsQuery(op.kind)) {
      // Lane calls on the live objects; the router is idle between ops.
      quiesce();
      std::vector<const gir::DynamicGirIndex*> lanes;
      for (size_t s = 0; s < index.shard_count(); ++s) {
        lanes.push_back(&index.shard(s));
      }
      LaneQueries(i, op, lanes,
                  std::vector<int64_t>(lanes.size(), t_.span_upper[i]));
    }
  }
  quiesce();
  double mib = 0;
  uint64_t end_generations = 0;
  for (size_t s = 0; s < index.shard_count(); ++s) {
    end_generations += index.shard(s).generation();
    mib += static_cast<double>(index.shard(s).MemoryBytes().total());
  }
  values_["dynamic.compactions"] =
      static_cast<double>(end_generations - generations);
  values_["dynamic.index_mb"] = mib / (1024.0 * 1024.0);
  if (index.wal() != nullptr) {
    values_["wal.syncs"] = static_cast<double>(index.wal()->stats().syncs);
  }
  const std::string twin_stats = twin_metrics.Render();
  const double ext = StatSum(twin_stats, "cache_extensions");
  const double inv = StatSum(twin_stats, "cache_invalidations");
  values_["cache.extend_ratio"] = ext + inv > 0 ? ext / (ext + inv) : 0;
  CheckPass("sharded", records, false);
  return gir::Status::OK();
}

gir::Status TracedRun::NoWalPass() {
  const std::string dir = PassDir("nowal");
  gir::Status s = CopyTree(files_, dir);
  if (!s.ok()) return s;
  auto r = RestartDurable(spec_, dir, /*serve=*/false, /*attach_wal=*/false);
  if (!r.ok()) return r.status();
  gir::ShardedGirIndex& index = *r.value()->index;
  const std::unique_ptr<Target> target = ShardedTarget(&index);
  for (size_t i = 0; i < ops_.size(); ++i) {
    if (IsQuery(ops_[i].kind)) continue;  // queries leave the state alone
    const Clock::time_point t0 = Clock::now();
    const OpOutcome o = target->Run(ops_[i], spec_.k);
    const Clock::time_point t1 = Clock::now();
    if (o.status != kStatusOk) ++pass_errors_;
    t_.nowal[i] = Us(t0, t1);
    t_.span_below[i] = tracer_.Add("sharded_nowal", t0, t1, t_.span_e2e[i], i);
  }
  index.WaitBackgroundIdle();
  return gir::Status::OK();
}

gir::Status TracedRun::WalPass() {
  const std::string dir = PassDir("wal_only");
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  auto opened = gir::ShardedWal::Open(dir, static_cast<uint32_t>(spec_.shards),
                                      0, gir::FsyncPolicy::kNever);
  if (!opened.ok()) return opened.status();
  gir::ShardedWal& wal = *opened.value();
  WeightOwners owners(spec_.weights, spec_.shards);
  OpSequence seq(spec_, seed_, inputs_);
  for (const Op& op : seq.Prelude()) {
    if (op.kind == OpKind::kInsertWeight) owners.Insert();
    if (op.kind == OpKind::kDeleteWeight) owners.Erase(op.id);
  }
  uint64_t seq_no = spec_.prelude;
  size_t mutations = 0;
  for (size_t i = 0; i < ops_.size(); ++i) {
    const Op& op = ops_[i];
    if (IsQuery(op.kind)) continue;
    gir::WalRecord rec;
    rec.seq = ++seq_no;
    rec.row = op.row;
    rec.id = op.id;
    gir::Status s;
    const Clock::time_point t0 = Clock::now();
    switch (op.kind) {
      case OpKind::kInsertPoint:
        rec.op = gir::WalOp::kInsertPoint;
        s = wal.AppendAll(rec);
        break;
      case OpKind::kDeletePoint:
        rec.op = gir::WalOp::kDeletePoint;
        s = wal.AppendAll(rec);
        break;
      case OpKind::kInsertWeight:
        rec.op = gir::WalOp::kInsertWeight;
        s = wal.Append(owners.Insert(), rec);
        break;
      default:
        rec.op = gir::WalOp::kDeleteWeight;
        s = wal.Append(owners.Erase(op.id).first, rec);
        break;
    }
    const Clock::time_point t1 = Clock::now();
    if (!s.ok()) ++pass_errors_;
    ++mutations;
    t_.wal[i] = Us(t0, t1);
    tracer_.Add("wal_append", t0, t1, t_.span_upper[i], i);
  }
  const gir::WalStats stats = wal.stats();
  values_["wal.bytes_per_mut"] =
      mutations > 0 ? static_cast<double>(stats.bytes) /
                          static_cast<double>(mutations)
                    : 0;
  values_["wal.syncs"] += static_cast<double>(stats.syncs);
  return gir::Status::OK();
}

gir::Status TracedRun::DistPass() {
  // The traced client pass wrote the envelope as part of its set-up.
  auto booted = BootRouted(PassDir("client"), /*router=*/true, /*front=*/false);
  if (!booted.ok()) return booted.status();
  const std::unique_ptr<Target> target = DistTarget(booted.value()->router.get());
  Records records;
  for (size_t i = 0; i < ops_.size(); ++i) {
    const Clock::time_point t0 = Clock::now();
    OpOutcome o = target->Run(ops_[i], spec_.k);
    const Clock::time_point t1 = Clock::now();
    o.kind = ops_[i].kind;
    records.push_back(o);
    t_.upper[i] = Us(t0, t1);
    t_.span_upper[i] = tracer_.Add("dist", t0, t1, t_.span_e2e[i], i);
  }
  CheckPass("dist", records, true);
  return gir::Status::OK();
}

gir::Status TracedRun::DirectPass() {
  const Clock::time_point boot = Clock::now();
  auto booted = BootRouted(PassDir("client"), /*router=*/false, /*front=*/false);
  if (!booted.ok()) return booted.status();
  values_["io.build_s"] = Us(boot, Clock::now()) / 1e6;
  RoutedStack& stack = *booted.value();
  std::vector<gir::RemoteClient> clients;
  for (const auto& server : stack.lane_servers) {
    auto c = gir::RemoteClient::Connect("127.0.0.1", server->port());
    if (!c.ok()) return c.status();
    clients.push_back(std::move(c).value());
    clients.back().set_router_write(true);
  }
  uint64_t generations = 0;
  for (const auto& lane : stack.lanes) generations += lane->shard(0).generation();
  WeightOwners owners(spec_.weights, spec_.shards);
  for (size_t i = 0; i < ops_.size(); ++i) {
    const Op& op = ops_[i];
    std::vector<int64_t> rpc_spans(clients.size(), -1);
    double slowest = 0;
    auto rpc = [&](size_t s, auto&& call) {
      const Clock::time_point t0 = Clock::now();
      const gir::Status st = call(clients[s]);
      const Clock::time_point t1 = Clock::now();
      if (!st.ok()) ++pass_errors_;
      rpc_spans[s] = tracer_.Add("shard_rpc", t0, t1, t_.span_upper[i], i);
      slowest = std::max(slowest, Us(t0, t1));
    };
    switch (op.kind) {
      case OpKind::kRtk:
      case OpKind::kRkr:
        for (size_t s = 0; s < clients.size(); ++s) {
          rpc(s, [&](gir::RemoteClient& c) {
            return op.kind == OpKind::kRtk
                       ? c.ReverseTopK(op.row, spec_.k).status()
                       : c.ReverseKRanks(op.row, spec_.k).status();
          });
        }
        break;
      case OpKind::kInsertPoint:
        for (size_t s = 0; s < clients.size(); ++s) {
          rpc(s, [&](gir::RemoteClient& c) { return c.InsertPoint(op.row); });
        }
        break;
      case OpKind::kDeletePoint:
        for (size_t s = 0; s < clients.size(); ++s) {
          rpc(s, [&](gir::RemoteClient& c) { return c.DeletePoint(op.id); });
        }
        break;
      case OpKind::kInsertWeight:
        rpc(owners.Insert(),
            [&](gir::RemoteClient& c) { return c.InsertWeight(op.row); });
        break;
      case OpKind::kDeleteWeight: {
        const auto [s, local] = owners.Erase(op.id);
        rpc(s, [&](gir::RemoteClient& c) { return c.DeleteWeight(local); });
        break;
      }
    }
    t_.below[i] = slowest;
    if (IsQuery(op.kind)) {
      std::vector<const gir::DynamicGirIndex*> lanes;
      for (const auto& lane : stack.lanes) {
        lane->Quiesce();
        lanes.push_back(&lane->shard(0));
      }
      LaneQueries(i, op, lanes, rpc_spans);
    }
  }
  double mib = 0;
  uint64_t end_generations = 0;
  for (const auto& lane : stack.lanes) {
    lane->Quiesce();
    end_generations += lane->shard(0).generation();
    mib += static_cast<double>(lane->shard(0).MemoryBytes().total());
  }
  values_["dynamic.compactions"] =
      static_cast<double>(end_generations - generations);
  values_["dynamic.index_mb"] = mib / (1024.0 * 1024.0);
  return gir::Status::OK();
}

void TracedRun::CheckPass(const char* pass, const Records& got,
                          bool versions) {
  const CheckResult r = Compare(expected_, got, versions);
  mismatches_ += r.mismatches;
  pass_errors_ += r.errors + r.overloaded + r.degraded;
  if (r.mismatches > 0 && first_problem_.empty()) {
    first_problem_ = std::string(pass) + ": " + r.first_mismatch;
  }
}

Metrics TracedRun::Assemble(const PhaseResult& untraced,
                            const PhaseResult& traced,
                            const OracleTimings& oracle) {
  auto query = [&](size_t i) { return IsQuery(t_.kind[i]); };
  auto miss = [&](size_t i) { return query(i) && !t_.hit[i]; };
  auto mut = [&](size_t i) { return !query(i); };
  auto kind = [&](OpKind k) { return [&, k](size_t i) { return t_.kind[i] == k; }; };
  auto all = [](size_t) { return true; };
  auto& v = values_;

  // Engine and core counts of the lane calls.
  EngineWork both = rtk_work_;
  both.stats += rkr_work_.stats;
  both.pairs += rkr_work_.pairs;
  both.queries += rkr_work_.queries;
  const double q = std::max<double>(1, static_cast<double>(both.queries));
  const gir::QueryStats& qs = both.stats;
  v["core.inner_products_per_q"] = static_cast<double>(qs.inner_products) / q;
  v["core.bound_evals_per_q"] = static_cast<double>(qs.bound_evaluations) / q;
  v["engine.points_streamed_per_q"] = static_cast<double>(qs.points_streamed) / q;
  const double blocks =
      static_cast<double>(qs.blocks_skipped + qs.blocks_descended);
  v["engine.block_skip_ratio"] =
      blocks > 0 ? static_cast<double>(qs.blocks_skipped) / blocks : 0;
  v["engine.filter_rate"] = qs.FilterRate();
  v["engine.filter_rate_model"] =
      gir::WorstCaseFilterRate(spec_.dim, gir::GirOptions{}.partitions);
  v["engine.accessed_frac"] =
      both.pairs > 0 ? static_cast<double>(qs.points_refined) / both.pairs : 0;
  v["engine.rtk_us"] = Median(Pick(t_.lane, kind(OpKind::kRtk)));
  v["engine.rkr_us"] = Median(Pick(t_.lane, kind(OpKind::kRkr)));
  // Mean, not median: the lane cost of a query mix is bimodal (τ-resolved
  // RTK vs banded RKR scans).
  const std::vector<double> lane_q = Pick(t_.lane, query);
  double lane_sum = 0;
  for (double x : lane_q) lane_sum += x;
  v["dynamic.query_us"] =
      lane_q.empty() ? 0 : lane_sum / static_cast<double>(lane_q.size());

  v["dynamic.insert_point_us"] = Median(Pick(t_.oracle, kind(OpKind::kInsertPoint)));
  v["dynamic.delete_point_us"] = Median(Pick(t_.oracle, kind(OpKind::kDeletePoint)));
  v["dynamic.insert_weight_us"] = Median(Pick(t_.oracle, kind(OpKind::kInsertWeight)));
  v["dynamic.delete_weight_us"] = Median(Pick(t_.oracle, kind(OpKind::kDeleteWeight)));
  v["dynamic.compact_ms"] = Median(oracle.compact_ms);

  v["cache.lookup_us"] = Median(Pick(t_.lookup, all));
  v["cache.invalidate_us"] = Median(Pick(t_.invalidate, all));
  v["server.hit_rtt_us"] =
      Median(Pick(t_.e2e, [&](size_t i) { return query(i) && t_.hit[i]; }));
  v["wal.append_us"] = Median(Pick(t_.wal, all));

  // Self times: a span minus its slowest child for the same op. Each
  // chain lists the layers an op crosses, top down.
  std::vector<std::pair<const char*, std::vector<double>>> query_chain, mut_chain;
  if (Routed()) {
    query_chain = {{"router.front_us", Diff(t_.e2e, t_.upper, query)},
                   {"router.query_self_us", Diff(t_.upper, t_.below, query)},
                   {"router.shard_rtt_us", Pick(t_.below, query)}};
    mut_chain = {{"router.front_us", Diff(t_.e2e, t_.upper, mut)},
                 {"router.mut_self_us", Diff(t_.upper, t_.below, mut)},
                 {"", Pick(t_.below, mut)}};
    v["router.front_us"] = Median(Diff(t_.e2e, t_.upper, all));
    v["router.query_self_us"] = Median(query_chain[1].second);
    v["router.mut_self_us"] = Median(mut_chain[1].second);
    v["router.shard_rtt_us"] = Median(query_chain[2].second);
  } else {
    query_chain = {{"server.query_self_us", Diff(t_.e2e, t_.upper, miss)},
                   {"sharded.query_self_us", Diff(t_.upper, t_.lane, miss)},
                   {"", Pick(t_.lane, miss)}};
    const std::vector<double>& sharded_mut = Durable() ? t_.nowal : t_.upper;
    mut_chain = {{"server.mut_self_us", Diff(t_.e2e, t_.upper, mut)},
                 {"", Diff(t_.upper, sharded_mut, mut)},  // WAL share
                 {"sharded.mut_self_us", Diff(sharded_mut, t_.oracle, mut)},
                 {"", Pick(t_.oracle, mut)}};
    if (!Durable()) mut_chain.erase(mut_chain.begin() + 1);
    v["server.query_self_us"] = Median(query_chain[0].second);
    v["server.mut_self_us"] = Median(mut_chain[0].second);
    v["sharded.query_self_us"] =
        Median(Diff(t_.upper, t_.lane, query));
    v["sharded.mut_self_us"] = Median(Diff(sharded_mut, t_.oracle, mut));
  }
  // Residual: end-to-end p50 minus the sum of the layers' self-time p50s,
  // per op class, weighted by the class's share of ops.
  double residual = 0;
  size_t counted = 0;
  auto add_residual = [&](const auto& chain, auto keep) {
    const std::vector<double> e2e = Pick(t_.e2e, keep);
    if (e2e.empty()) return;
    double layers = 0;
    for (const auto& layer : chain) layers += Median(layer.second);
    residual += static_cast<double>(e2e.size()) * (Median(e2e) - layers);
    counted += e2e.size();
  };
  add_residual(query_chain, miss);
  add_residual(mut_chain, mut);
  v["trace.residual_us"] = counted > 0 ? residual / static_cast<double>(counted) : 0;

  // The traced run's end-to-end figures beside the untraced pass's.
  const Metrics traced_m = LatencyMetrics(traced);
  const Metrics untraced_m = LatencyMetrics(untraced);
  for (const Metric& m : traced_m) v["traced." + m.name] = m.value;
  for (const Metric& m : untraced_m) v["untraced." + m.name] = m.value;
  const double base = untraced.seconds;
  v["trace.overhead_frac"] = base > 0 ? (traced.seconds - base) / base : 0;

  static const std::vector<std::pair<const char*, const char*>> kNames = {
      {"core.inner_products_per_q", "count"},
      {"core.bound_evals_per_q", "count"},
      {"engine.rtk_us", "us"},
      {"engine.rkr_us", "us"},
      {"engine.points_streamed_per_q", "count"},
      {"engine.block_skip_ratio", "ratio"},
      {"engine.filter_rate", "ratio"},
      {"engine.filter_rate_model", "ratio"},
      {"engine.accessed_frac", "ratio"},
      {"dynamic.insert_point_us", "us"},
      {"dynamic.delete_point_us", "us"},
      {"dynamic.insert_weight_us", "us"},
      {"dynamic.delete_weight_us", "us"},
      {"dynamic.query_us", "us"},
      {"dynamic.compactions", "count"},
      {"dynamic.compact_ms", "ms"},
      {"sharded.bg_compactions", "count"},
      {"dynamic.index_mb", "MiB"},
      {"sharded.query_self_us", "us"},
      {"sharded.mut_self_us", "us"},
      {"wal.append_us", "us"},
      {"wal.bytes_per_mut", "B"},
      {"wal.syncs", "count"},
      {"io.build_s", "s"},
      {"io.wal_read_s", "s"},
      {"io.wal_replay_s", "s"},
      {"server.query_self_us", "us"},
      {"server.mut_self_us", "us"},
      {"server.hit_rtt_us", "us"},
      {"server.batch_rows", "count"},
      {"cache.hit_rate", "ratio"},
      {"cache.lookup_us", "us"},
      {"cache.invalidate_us", "us"},
      {"cache.extend_ratio", "ratio"},
      {"router.front_us", "us"},
      {"router.query_self_us", "us"},
      {"router.mut_self_us", "us"},
      {"router.shard_rtt_us", "us"},
      {"router.rpcs_per_op", "count"},
      {"router.retries", "count"},
      {"router.degraded", "count"},
      {"traced.ops_per_s", "1/s"},
      {"traced.rtk_p50_us", "us"},
      {"traced.rkr_p50_us", "us"},
      {"traced.mut_p50_us", "us"},
      {"untraced.ops_per_s", "1/s"},
      {"untraced.rtk_p50_us", "us"},
      {"untraced.rkr_p50_us", "us"},
      {"untraced.mut_p50_us", "us"},
      {"trace.overhead_frac", "ratio"},
      {"trace.residual_us", "us"},
  };
  Metrics out;
  for (const auto& [name, unit] : kNames) {
    const auto it = v.find(name);
    out.push_back({name, it == v.end() ? 0.0 : it->second, unit});
  }
  return out;
}

int TracedRun::Run(const std::string& trace_out) {
  const std::vector<Op> prelude = OpSequence(spec_, seed_, inputs_).Prelude();
  gir::Status s = PrepareFiles(spec_, inputs_, prelude, files_);
  if (!s.ok()) {
    std::fprintf(stderr, "error: prepare: %s\n", s.ToString().c_str());
    return 2;
  }
  ops_ = TimedOps();
  warmup_ = 2 * spec_.pool;
  t_ = OpTimes(ops_.size());
  for (size_t i = 0; i < ops_.size(); ++i) t_.kind[i] = ops_[i].kind;

  PhaseResult untraced, traced;
  auto fail = [](const char* pass, const gir::Status& st) {
    std::fprintf(stderr, "error: %s pass: %s\n", pass, st.ToString().c_str());
    return 2;
  };
  if (!(s = ClientPass(false, &untraced)).ok()) return fail("untraced", s);
  if (!(s = ClientPass(true, &traced)).ok()) return fail("client", s);

  // The oracle pass: expected answers for every other pass, and the
  // single-index mutation costs (dynamic.*).
  OracleTimings oracle;
  expected_ = OracleRecords(spec_, seed_, inputs_, spec_.trace_ops,
                            traced.records, &oracle);
  for (size_t i = 0; i < ops_.size(); ++i) {
    const size_t r = warmup_ + i;
    if (r >= oracle.mutation_us.size() || !std::isfinite(oracle.mutation_us[r])) {
      continue;
    }
    t_.oracle[i] = oracle.mutation_us[r];
  }
  CheckPass("client", traced.records, true);

  if (Routed()) {
    if (!(s = DistPass()).ok()) return fail("dist", s);
    if (!(s = DirectPass()).ok()) return fail("direct", s);
  } else {
    if (!(s = ShardedPass()).ok()) return fail("sharded", s);
    if (Durable()) {
      if (!(s = NoWalPass()).ok()) return fail("nowal", s);
      if (!(s = WalPass()).ok()) return fail("wal", s);
    }
  }
  for (size_t i = 0; i < ops_.size(); ++i) {
    const size_t r = warmup_ + i;
    if (std::isfinite(t_.oracle[i])) {
      const auto start = oracle.mutation_start[r];
      tracer_.Add("dynamic", start,
                  start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double, std::micro>(
                                  t_.oracle[i])),
                  Durable()  ? t_.span_below[i]
                  : Routed() ? -1
                             : t_.span_upper[i],
                  i);
    }
  }

  // Invariants of the stack: a router retry or an fdatasync under
  // FsyncPolicy::kNever counts as a failed op, like a degraded answer.
  for (const char* name : {"router.retries", "wal.syncs"}) {
    const size_t n = static_cast<size_t>(values_[name]);
    pass_errors_ += n;
    if (n > 0 && first_problem_.empty()) {
      first_problem_ = std::string(name) + " = " + std::to_string(n);
    }
  }
  const Metrics metrics = Assemble(untraced, traced, oracle);
  if (!trace_out.empty() && !tracer_.Write(trace_out)) {
    std::fprintf(stderr, "error: cannot write %s\n", trace_out.c_str());
    return 2;
  }
  std::printf("%s traced: %zu ops per pass, %zu mismatches, %zu pass "
              "errors%s%s\n",
              WorkloadName(spec_.workload), ops_.size(), mismatches_,
              pass_errors_, first_problem_.empty() ? "" : "; first: ",
              first_problem_.c_str());
  // CheckPass folded the client pass's failures into these counters.
  PrintResult(mismatches_ == 0, traced.records.size(),
              mismatches_ + pass_errors_, metrics);
  return mismatches_ == 0 ? 0 : 1;
}

}  // namespace

int RunTraced(const WorkloadSpec& spec, uint64_t seed, const std::string& dir,
              const std::string& trace_out) {
  TracedRun run(spec, seed, dir);
  return run.Run(trace_out);
}

}  // namespace perfbench
