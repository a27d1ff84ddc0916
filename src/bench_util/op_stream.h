#ifndef GIR_BENCH_UTIL_OP_STREAM_H_
#define GIR_BENCH_UTIL_OP_STREAM_H_

// One seeded operation stream and one oracle checker for every churn test
// and bench. Every router, server and WAL path must answer exactly as one
// DynamicGirIndex fed the same op stream (the paper's exact Alg. 2 / 3
// answers): OpStream draws the stream, ApplyOp replays an op on an index,
// and OracleChecker applies each op to a target and to that oracle.

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/dataset.h"
#include "core/query_types.h"
#include "core/status.h"
#include "grid/dynamic_index.h"
#include "grid/sharded_index.h"
#include "server/client.h"

namespace gir {

/// Mutations first, then the two queries: reverse top-k (Alg. 2) and
/// reverse k-ranks (Alg. 3).
enum class OpKind : uint8_t {
  kInsertPoint, kDeletePoint, kInsertWeight, kDeleteWeight, kCompact,
  kRtk, kRkr,
};
inline constexpr size_t kOpKinds = 7;

const char* OpKindName(OpKind kind);
inline bool IsQuery(OpKind kind) {
  return kind == OpKind::kRtk || kind == OpKind::kRkr;
}

struct Op {
  OpKind kind = OpKind::kCompact;
  std::vector<double> row;  ///< insert payload, or the query point
  VectorId id = 0;          ///< delete target (a live id)
  size_t k = 0;             ///< query depth

  ConstRow Row() const { return ConstRow(row.data(), row.size()); }
};

Op QueryOp(OpKind kind, ConstRow q, size_t k);

/// An op's status and, for a query, its answer.
struct OpResult {
  Status status;
  ReverseTopKResult rtk;
  ReverseKRanksResult rkr;
};

OpResult ApplyOp(DynamicGirIndex& index, const Op& op);
/// `seq` (nullable) receives the sequence a mutation was admitted at or a
/// query executed at.
OpResult ApplyOp(ShardedGirIndex& index, const Op& op, uint64_t* seq = nullptr);

/// The point-row generator: d values uniform on [0, 10000).
std::vector<double> RandomPointRow(std::mt19937_64& rng, size_t d);
/// The weight-row generator: d values uniform on [0.05, 1), normalized
/// onto the simplex.
std::vector<double> RandomWeightRow(std::mt19937_64& rng, size_t d);

/// Per-kind shares of a stream in percent, summing to 100.
struct OpMix {
  uint32_t insert_point = 0, delete_point = 0;
  uint32_t insert_weight = 0, delete_weight = 0;
  uint32_t compact = 0, rtk = 0, rkr = 0;
};

struct OpStreamOptions {
  size_t dim = 0;
  OpMix mix;
  size_t live_points = 0, live_weights = 0;  ///< at the stream's start
  /// A delete is drawn only while the live count is above its floor.
  size_t min_live_points = 0, min_live_weights = 0;
  size_t max_k = 8;  ///< query depth is uniform on [1, max_k]
};

/// A seeded op stream; equal seeds and options give identical streams.
/// Next() rolls a percentile and takes the first kind, in OpMix order,
/// whose cumulative share exceeds the roll and which is allowed, as an
/// else-if chain over the kinds would. A delete at its floor
/// is not allowed and falls through to the kinds after it, wrapping to
/// the first (Compact if none is allowed). The stream tracks the live
/// counts itself, assuming every op it drew was applied, so every delete
/// id lies inside the live range.
class OpStream {
 public:
  OpStream(uint64_t seed, const OpStreamOptions& options);

  Op Next();
  /// A query outside the mix, with a fresh point row and a drawn k.
  Op Query(OpKind kind);

  uint64_t seed() const { return seed_; }
  size_t live_points() const { return opt_.live_points; }
  size_t live_weights() const { return opt_.live_weights; }

 private:
  bool Allowed(OpKind kind) const;
  std::vector<double> PointRow() { return RandomPointRow(rng_, opt_.dim); }
  std::vector<double> WeightRow() { return RandomWeightRow(rng_, opt_.dim); }

  uint64_t seed_;
  OpStreamOptions opt_;  // live counts advance as ops are drawn
  std::array<uint32_t, kOpKinds> share_;
  std::mt19937_64 rng_;
};

struct LiveCounts {
  size_t points = 0, weights = 0;
  friend bool operator==(const LiveCounts&, const LiveCounts&) = default;
};

/// What the checker drives: one call per op, and the live counts.
class OpTarget {
 public:
  virtual ~OpTarget() = default;
  virtual OpResult Apply(const Op& op) = 0;
  virtual Result<LiveCounts> Live() = 0;
};

/// An in-process ShardedGirIndex (or a second DynamicGirIndex).
template <typename Index>
class IndexTarget final : public OpTarget {
 public:
  explicit IndexTarget(Index& index) : index_(index) {}
  OpResult Apply(const Op& op) override { return ApplyOp(index_, op); }
  Result<LiveCounts> Live() override {
    return LiveCounts{index_.live_point_count(), index_.live_weight_count()};
  }

 private:
  Index& index_;
};

/// A QueryServer or a healthy RouterServer behind a RemoteClient. A reply
/// marked degraded (ack or answer) is refused: a partial answer cannot
/// equal the oracle's.
class RemoteTarget final : public OpTarget {
 public:
  explicit RemoteTarget(RemoteClient& client) : client_(client) {}

  OpResult Apply(const Op& op) override {
    OpResult r;
    r.status = Call(op, r);
    if (r.status.ok() && client_.last_degraded()) {
      r.status = Status::Internal("marked degraded on a healthy cluster");
    }
    return r;
  }

  Result<LiveCounts> Live() override {
    auto info = client_.Info();
    if (!info.ok()) return info.status();
    return LiveCounts{info.value().live_points, info.value().live_weights};
  }

 private:
  Status Call(const Op& op, OpResult& r) {
    const ConstRow row = op.Row();
    const auto k = static_cast<uint32_t>(op.k);
    switch (op.kind) {
      case OpKind::kInsertPoint: return client_.InsertPoint(row);
      case OpKind::kDeletePoint: return client_.DeletePoint(op.id);
      case OpKind::kInsertWeight: return client_.InsertWeight(row);
      case OpKind::kDeleteWeight: return client_.DeleteWeight(op.id);
      case OpKind::kCompact: return client_.Compact();
      case OpKind::kRtk: return Take(client_.ReverseTopK(row, k), &r.rtk);
      case OpKind::kRkr: return Take(client_.ReverseKRanks(row, k), &r.rkr);
    }
    return Status::OK();
  }
  template <typename T>
  static Status Take(Result<T> got, T* out) {
    if (got.ok()) *out = std::move(got).value();
    return got.status();
  }

  RemoteClient& client_;
};

/// Applies every op to `target` and to the single-index `oracle` and
/// compares mutation outcomes, query answers and live counts. A failure
/// reads "seed S, op N (kind ...): ...", N counting this checker's ops
/// from 0. Streams draw only valid ops, so the oracle rejecting one is a
/// failure too.
class OracleChecker {
 public:
  OracleChecker(DynamicGirIndex& oracle, OpTarget& target, uint64_t seed)
      : oracle_(oracle), target_(target), seed_(seed) {}

  Status Step(const Op& op);
  /// Steps `num_ops` ops of `stream`, then compares the live counts.
  Status Run(OpStream& stream, size_t num_ops);
  /// Steps one `kind` query of depth k per row of `queries`.
  Status CheckQueries(OpKind kind, const Dataset& queries, size_t k);
  Status CheckLive();

  size_t ops() const { return ops_; }
  size_t queries() const { return queries_; }

 private:
  Status Fail(const std::string& where, const std::string& what) const;

  DynamicGirIndex& oracle_;
  OpTarget& target_;
  uint64_t seed_;
  size_t ops_ = 0;
  size_t queries_ = 0;
};

/// The rebuild oracle: a static GirIndex built from scratch over a dynamic
/// index's live sets with its options, which every dynamic query must
/// match bit for bit. Owns its datasets (GirIndex keeps pointers to them).
struct RebuiltIndex {
  std::unique_ptr<Dataset> points;
  std::unique_ptr<Dataset> weights;
  std::unique_ptr<GirIndex> index;
};
Result<RebuiltIndex> RebuildOracle(const DynamicGirIndex& dyn);

/// One op of a concurrent run as the run recorded it. `version` counts
/// the mutations applied when it ran: a mutation's own admission sequence
/// (1, 2, ...), or the version a query observed.
struct RecordedOp {
  Op op;
  OpResult result;
  uint64_t version = 0;
};

/// The serial-replay oracle of the concurrency tests: orders `history` by
/// version (mutation v before the queries that observed v) and steps it
/// through an OracleChecker whose target answers what the run recorded.
/// Also refuses mutation versions that are not exactly 1, 2, ..., N, and
/// a query that observed a version no recorded mutation produced.
Status CheckHistory(DynamicGirIndex& oracle, std::vector<RecordedOp> history,
                    uint64_t seed);

/// The sharded merge oracle: `num_ops` ops of one seeded stream (every
/// kind, deletes floored at 40 points and 30 weights, k <= 8) through a
/// ShardedGirIndex built with `options` and through one DynamicGirIndex
/// built with `options.dynamic`, over 120 uniform points (seed `seed`)
/// and 160 uniform weights (`seed + 1`) in d = 4; the stream's seed is
/// `seed + 2`, and a failure names `seed`. `queries` and `bg_compactions`
/// (nullable) receive the queries checked and the background compactions
/// the router installed.
Status CheckShardedMerge(const ShardedIndexOptions& options, size_t num_ops,
                         uint64_t seed, size_t* queries = nullptr,
                         uint64_t* bg_compactions = nullptr);

}  // namespace gir

#endif  // GIR_BENCH_UTIL_OP_STREAM_H_
