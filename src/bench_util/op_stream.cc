#include "bench_util/op_stream.h"

#include <algorithm>
#include <sstream>

#include "data/generators.h"
#include "data/weights.h"

namespace gir {
namespace {

/// The one op switch. `tail` is empty for DynamicGirIndex and the
/// sequence out-pointer for ShardedGirIndex, whose calls take it last.
template <typename Index, typename... Tail>
Status Call(Index& index, const Op& op, OpResult& r, Tail... tail) {
  switch (op.kind) {
    case OpKind::kInsertPoint: return index.InsertPoint(op.Row(), tail...);
    case OpKind::kDeletePoint: return index.DeletePoint(op.id, tail...);
    case OpKind::kInsertWeight: return index.InsertWeight(op.Row(), tail...);
    case OpKind::kDeleteWeight: return index.DeleteWeight(op.id, tail...);
    case OpKind::kCompact: return index.Compact(tail...);
    case OpKind::kRtk:
      r.rtk = index.ReverseTopK(op.Row(), op.k, nullptr, tail...);
      break;
    case OpKind::kRkr:
      r.rkr = index.ReverseKRanks(op.Row(), op.k, nullptr, tail...);
      break;
  }
  return Status::OK();
}

std::ostream& operator<<(std::ostream& out, const RankedWeight& entry) {
  return out << "(w" << entry.weight_id << ", rank " << entry.rank << ")";
}

/// Empty when the answers are equal, else where they first differ.
template <typename T>
std::string FirstDifference(const std::vector<T>& got,
                            const std::vector<T>& want) {
  if (got == want) return "";
  const auto [g, w] =
      std::mismatch(got.begin(), got.end(), want.begin(), want.end());
  std::ostringstream out;
  out << "answers diverge at entry " << (g - got.begin()) << ": target ";
  g == got.end() ? out << "ends" : out << *g;
  out << ", oracle ";
  w == want.end() ? out << "ends" : out << *w;
  out << " (" << got.size() << " vs " << want.size() << " entries)";
  return out.str();
}

/// Answers each op with what a concurrent run recorded for it, in order.
class HistoryTarget final : public OpTarget {
 public:
  explicit HistoryTarget(const std::vector<RecordedOp>& history)
      : history_(history) {}
  OpResult Apply(const Op&) override { return history_[next_++].result; }
  Result<LiveCounts> Live() override {
    return Status::Unimplemented("a recorded history has no live counts");
  }

 private:
  const std::vector<RecordedOp>& history_;
  size_t next_ = 0;
};

}  // namespace

const char* OpKindName(OpKind kind) {
  static constexpr const char* kNames[kOpKinds] = {
      "insert_point", "delete_point", "insert_weight", "delete_weight",
      "compact",      "rtk",          "rkr"};
  return kNames[static_cast<size_t>(kind)];
}

Op QueryOp(OpKind kind, ConstRow q, size_t k) {
  return Op{kind, std::vector<double>(q.begin(), q.end()), 0, k};
}

OpResult ApplyOp(DynamicGirIndex& index, const Op& op) {
  OpResult r;
  r.status = Call(index, op, r);
  return r;
}

OpResult ApplyOp(ShardedGirIndex& index, const Op& op, uint64_t* seq) {
  OpResult r;
  r.status = Call(index, op, r, seq);
  return r;
}

std::vector<double> RandomPointRow(std::mt19937_64& rng, size_t d) {
  std::uniform_real_distribution<double> value(0.0, 10000.0);
  std::vector<double> row(d);
  for (double& v : row) v = value(rng);
  return row;
}

std::vector<double> RandomWeightRow(std::mt19937_64& rng, size_t d) {
  std::uniform_real_distribution<double> value(0.05, 1.0);
  std::vector<double> row(d);
  double sum = 0.0;
  for (double& v : row) sum += (v = value(rng));
  for (double& v : row) v /= sum;
  return row;
}

OpStream::OpStream(uint64_t seed, const OpStreamOptions& options)
    : seed_(seed),
      opt_(options),
      share_{options.mix.insert_point,  options.mix.delete_point,
             options.mix.insert_weight, options.mix.delete_weight,
             options.mix.compact,       options.mix.rtk,
             options.mix.rkr},
      rng_(seed) {
  opt_.max_k = std::max<size_t>(opt_.max_k, 1);
}

bool OpStream::Allowed(OpKind kind) const {
  if (share_[static_cast<size_t>(kind)] == 0) return false;
  if (kind == OpKind::kDeletePoint) {
    return opt_.live_points > opt_.min_live_points;
  }
  if (kind == OpKind::kDeleteWeight) {
    return opt_.live_weights > opt_.min_live_weights;
  }
  return true;
}

Op OpStream::Next() {
  const uint32_t roll = static_cast<uint32_t>(rng_() % 100);
  size_t drawn = 0;
  for (uint32_t cumulative = share_[0];
       cumulative <= roll && drawn + 1 < kOpKinds;) {
    cumulative += share_[++drawn];
  }
  Op op;
  for (size_t step = 0; step < kOpKinds; ++step) {
    const auto kind = static_cast<OpKind>((drawn + step) % kOpKinds);
    if (Allowed(kind)) {
      op.kind = kind;
      break;
    }
  }
  switch (op.kind) {
    case OpKind::kInsertPoint:
      op.row = PointRow();
      ++opt_.live_points;
      break;
    case OpKind::kDeletePoint:
      op.id = static_cast<VectorId>(rng_() % opt_.live_points--);
      break;
    case OpKind::kInsertWeight:
      op.row = WeightRow();
      ++opt_.live_weights;
      break;
    case OpKind::kDeleteWeight:
      op.id = static_cast<VectorId>(rng_() % opt_.live_weights--);
      break;
    case OpKind::kCompact:
      break;
    case OpKind::kRtk:
    case OpKind::kRkr:
      op = Query(op.kind);
      break;
  }
  return op;
}

Op OpStream::Query(OpKind kind) {
  std::vector<double> row = PointRow();
  return Op{kind, std::move(row), 0, 1 + rng_() % opt_.max_k};
}

// ---- OracleChecker ---------------------------------------------------------

Status OracleChecker::Fail(const std::string& where,
                           const std::string& what) const {
  return Status::Internal("seed " + std::to_string(seed_) + ", " + where +
                          ": " + what);
}

Status OracleChecker::Step(const Op& op) {
  const size_t index = ops_++;
  const auto fail = [&](const std::string& what) {
    std::ostringstream where;
    where << "op " << index << " (" << OpKindName(op.kind);
    if (IsQuery(op.kind)) where << " k=" << op.k;
    if (op.kind == OpKind::kDeletePoint || op.kind == OpKind::kDeleteWeight) {
      where << " id=" << op.id;
    }
    where << ")";
    return Fail(where.str(), what);
  };
  const OpResult want = ApplyOp(oracle_, op);
  const OpResult got = target_.Apply(op);
  if (!want.status.ok()) {
    return fail("the oracle rejected the op: " + want.status.ToString());
  }
  if (!got.status.ok()) {
    return fail("the target returned " + got.status.ToString());
  }
  if (!IsQuery(op.kind)) return Status::OK();
  ++queries_;
  const std::string diff = op.kind == OpKind::kRtk
                               ? FirstDifference(got.rtk, want.rtk)
                               : FirstDifference(got.rkr, want.rkr);
  return diff.empty() ? Status::OK() : fail(diff);
}

Status OracleChecker::Run(OpStream& stream, size_t num_ops) {
  for (size_t i = 0; i < num_ops; ++i) {
    const Status s = Step(stream.Next());
    if (!s.ok()) return s;
  }
  return CheckLive();
}

Status OracleChecker::CheckQueries(OpKind kind, const Dataset& queries,
                                   size_t k) {
  for (size_t q = 0; q < queries.size(); ++q) {
    const Status s = Step(QueryOp(kind, queries.row(q), k));
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status OracleChecker::CheckLive() {
  const std::string where = "after " + std::to_string(ops_) + " ops";
  const Result<LiveCounts> got = target_.Live();
  if (!got.ok()) return Fail(where, got.status().ToString());
  const LiveCounts want{oracle_.live_point_count(),
                        oracle_.live_weight_count()};
  if (got.value() == want) return Status::OK();
  std::ostringstream what;
  what << "live counts diverge: target " << got.value().points << "/"
       << got.value().weights << ", oracle " << want.points << "/"
       << want.weights << " (points/weights)";
  return Fail(where, what.str());
}

Result<RebuiltIndex> RebuildOracle(const DynamicGirIndex& dyn) {
  RebuiltIndex o;
  o.points = std::make_unique<Dataset>(dyn.LivePoints());
  o.weights = std::make_unique<Dataset>(dyn.LiveWeights());
  auto built = GirIndex::Build(*o.points, *o.weights, dyn.options().gir);
  if (!built.ok()) return built.status();
  o.index = std::make_unique<GirIndex>(std::move(built).value());
  return o;
}

Status CheckHistory(DynamicGirIndex& oracle, std::vector<RecordedOp> history,
                    uint64_t seed) {
  std::stable_sort(history.begin(), history.end(),
                   [](const RecordedOp& a, const RecordedOp& b) {
                     if (a.version != b.version) return a.version < b.version;
                     return !IsQuery(a.op.kind) && IsQuery(b.op.kind);
                   });
  uint64_t version = 0;
  for (const RecordedOp& r : history) {
    if (IsQuery(r.op.kind) ? r.version != version : r.version != ++version) {
      return Status::Internal("seed " + std::to_string(seed) + ": version " +
                              std::to_string(r.version) + " recorded where " +
                              std::to_string(version) + " was due");
    }
  }
  HistoryTarget target(history);
  OracleChecker checker(oracle, target, seed);
  for (const RecordedOp& r : history) {
    const Status s = checker.Step(r.op);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status CheckShardedMerge(const ShardedIndexOptions& options, size_t num_ops,
                         uint64_t seed, size_t* queries,
                         uint64_t* bg_compactions) {
  constexpr size_t kDim = 4;
  const Dataset points =
      GeneratePoints(PointDistribution::kUniform, 120, kDim, seed);
  const Dataset weights =
      GenerateWeights(WeightDistribution::kUniform, 160, kDim, seed + 1);
  auto single = DynamicGirIndex::Build(points, weights, options.dynamic);
  if (!single.ok()) return single.status();
  auto sharded = ShardedGirIndex::Build(points, weights, options);
  if (!sharded.ok()) return sharded.status();
  OpStream stream(seed + 2, {.dim = kDim,
                             .mix = {.insert_point = 15, .delete_point = 10,
                                     .insert_weight = 30, .delete_weight = 17,
                                     .compact = 3, .rtk = 13, .rkr = 12},
                             .live_points = points.size(),
                             .live_weights = weights.size(),
                             .min_live_points = 40,
                             .min_live_weights = 30});
  IndexTarget target(*sharded.value());
  OracleChecker checker(single.value(), target, seed);
  const Status s = checker.Run(stream, num_ops);
  if (queries != nullptr) *queries = checker.queries();
  if (bg_compactions != nullptr) {
    sharded.value()->WaitBackgroundIdle();
    for (const ShardStatsSnapshot& shard : sharded.value()->ShardStats()) {
      *bg_compactions += shard.bg_compactions;
    }
  }
  return s;
}

}  // namespace gir
