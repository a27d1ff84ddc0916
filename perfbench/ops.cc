#include "ops.h"

#include <algorithm>
#include <cmath>

#include "data/generators.h"
#include "data/weights.h"

namespace perfbench {
namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t Fnv(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

/// Derives independent sub-seeds from the run seed (splitmix64 finalizer).
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Mutation-only mix: 45% insert-point, 30% delete-point, 15% insert-weight,
// 10% delete-weight.
constexpr Mix kMutationMix = {0, 0, 9, 6, 3, 2};

// The read workloads' tail, in insert/delete pairs: 7 point pairs and 3
// weight pairs per block of 20 operations.
constexpr Mix kTailPairs = {0, 0, 7, 0, 3, 0};

}  // namespace

std::optional<Workload> ParseWorkload(std::string_view name) {
  if (name == "cold_read") return Workload::kColdRead;
  if (name == "hot_read") return Workload::kHotRead;
  if (name == "durable_churn") return Workload::kDurableChurn;
  if (name == "routed") return Workload::kRouted;
  return std::nullopt;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kColdRead: return "cold_read";
    case Workload::kHotRead: return "hot_read";
    case Workload::kDurableChurn: return "durable_churn";
    case Workload::kRouted: return "routed";
  }
  return "?";
}

const char* OpKindName(OpKind k) {
  switch (k) {
    case OpKind::kRtk: return "rtk";
    case OpKind::kRkr: return "rkr";
    case OpKind::kInsertPoint: return "insert_point";
    case OpKind::kDeletePoint: return "delete_point";
    case OpKind::kInsertWeight: return "insert_weight";
    case OpKind::kDeleteWeight: return "delete_weight";
  }
  return "?";
}

WorkloadSpec SpecFor(Workload w) {
  WorkloadSpec s;
  s.workload = w;
  switch (w) {
    case Workload::kColdRead:
      s.mix = {1, 1, 0, 0, 0, 0};
      s.tail = 1000;  // 50 blocks of the tail pairs
      s.ops_per_second = 200;
      s.trace_ops = 120;
      break;
    case Workload::kHotRead:
      s.mix = {1, 1, 0, 0, 0, 0};
      s.pool = 1000;
      s.tail = 1000;  // 50 blocks of the tail pairs
      s.ops_per_second = 30000;
      s.trace_ops = 300;
      break;
    case Workload::kDurableChurn:
      s.dim = 4;
      s.points = 4000;
      s.weights = 4000;
      s.mix = {10, 10, 36, 24, 12, 8};
      s.prelude = 1200;
      s.ops_per_second = 1200;
      s.trace_ops = 1500;
      s.setup_reps = 5;  // a restart is ~0.4 s; more reps steady the median
      break;
    case Workload::kRouted:
      s.mix = {160, 20, 9, 6, 3, 2};
      s.ops_per_second = 400;  // 20 mix blocks of 200 per 10 s: windows hold whole blocks
      s.trace_ops = 300;
      break;
  }
  return s;
}

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed) {
  Inputs in;
  in.points = gir::GenerateUniform(spec.points, spec.dim, SubSeed(seed, 1));
  in.weights =
      gir::GenerateWeightsUniform(spec.weights, spec.dim, SubSeed(seed, 2));
  if (spec.pool > 0) {
    in.pool = gir::GenerateUniform(spec.pool, spec.dim, SubSeed(seed, 3));
  }
  return in;
}

OpSequence::OpSequence(const WorkloadSpec& spec, uint64_t seed,
                       const Inputs& inputs)
    : spec_(spec),
      inputs_(inputs),
      rng_(SubSeed(seed, 4)),
      live_points_(spec.points),
      live_weights_(spec.weights) {
  if (spec.pool > 0) {
    // zipf(0.99) over the pool slots.
    zipf_cdf_.resize(spec.pool);
    double sum = 0.0;
    for (size_t i = 0; i < spec.pool; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), 0.99);
      zipf_cdf_[i] = sum;
    }
    for (double& c : zipf_cdf_) c /= sum;
  }
}

OpKind OpSequence::NextKind(const Mix& mix, std::vector<OpKind>* block) {
  if (block->empty()) {
    for (size_t k = 0; k < kOpKinds; ++k) {
      block->insert(block->end(), mix[k], static_cast<OpKind>(k));
    }
    for (size_t i = block->size(); i > 1; --i) {
      std::swap((*block)[i - 1], (*block)[rng_() % i]);
    }
  }
  const OpKind kind = block->back();
  block->pop_back();
  return kind;
}

Op OpSequence::Draw(OpKind kind) {
  Op op;
  op.kind = kind;
  const size_t d = spec_.dim;
  switch (kind) {
    case OpKind::kRtk:
    case OpKind::kRkr:
      if (spec_.pool > 0) {
        const double u = Unit();
        const auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
        op.pool_slot = static_cast<uint32_t>(
            std::min<size_t>(it - zipf_cdf_.begin(), spec_.pool - 1));
        const gir::ConstRow r = inputs_.pool.row(op.pool_slot);
        op.row.assign(r.begin(), r.end());
        break;
      }
      [[fallthrough]];
    case OpKind::kInsertPoint:
      // Same distribution as the base points: uniform on [0, 10000)^d.
      op.row.resize(d);
      for (double& v : op.row) v = Unit() * 10000.0;
      if (kind == OpKind::kInsertPoint) ++live_points_;
      break;
    case OpKind::kInsertWeight: {
      // Uniform on the simplex, as normalized exponentials.
      op.row.resize(d);
      double sum = 0.0;
      for (double& v : op.row) {
        v = -std::log1p(-Unit());
        sum += v;
      }
      for (double& v : op.row) v /= sum;
      ++live_weights_;
      break;
    }
    case OpKind::kDeletePoint:
      op.id = rng_() % live_points_;
      --live_points_;
      break;
    case OpKind::kDeleteWeight:
      op.id = rng_() % live_weights_;
      --live_weights_;
      break;
  }
  return op;
}

std::vector<Op> OpSequence::Prelude() {
  std::vector<Op> ops;
  std::vector<OpKind> block;
  for (size_t i = 0; i < spec_.prelude; ++i) {
    ops.push_back(Draw(NextKind(kMutationMix, &block)));
  }
  return ops;
}

std::vector<Op> OpSequence::Warmup() {
  std::vector<Op> ops;
  for (OpKind kind : {OpKind::kRtk, OpKind::kRkr}) {
    for (size_t i = 0; i < spec_.pool; ++i) {
      Op op;
      op.kind = kind;
      op.pool_slot = static_cast<uint32_t>(i);
      const gir::ConstRow r = inputs_.pool.row(i);
      op.row.assign(r.begin(), r.end());
      ops.push_back(std::move(op));
    }
  }
  return ops;
}

Op OpSequence::NextMain() { return Draw(NextKind(spec_.mix, &main_block_)); }

std::vector<Op> OpSequence::Tail() {
  // Each insert is followed by the delete of the row it added, so the
  // index is back to its size after every pair and the cost of a tail
  // mutation does not drift with its position in the tail.
  std::vector<Op> ops;
  std::vector<OpKind> block;
  while (ops.size() < spec_.tail) {
    const OpKind insert = NextKind(kTailPairs, &block);
    ops.push_back(Draw(insert));
    Op erase;
    if (insert == OpKind::kInsertPoint) {
      erase.kind = OpKind::kDeletePoint;
      erase.id = --live_points_;
    } else {
      erase.kind = OpKind::kDeleteWeight;
      erase.id = --live_weights_;
    }
    ops.push_back(std::move(erase));
  }
  return ops;
}

uint64_t DigestOp(uint64_t h, const Op& op) {
  if (h == 0) h = kFnvOffset;
  h = Fnv(h, &op.kind, sizeof(op.kind));
  h = Fnv(h, &op.id, sizeof(op.id));
  return Fnv(h, op.row.data(), op.row.size() * sizeof(double));
}

uint64_t DigestAnswer(const gir::ReverseTopKResult& r) {
  return Fnv(kFnvOffset, r.data(), r.size() * sizeof(r[0]));
}

uint64_t DigestAnswer(const gir::ReverseKRanksResult& r) {
  uint64_t h = kFnvOffset ^ 0x5bd1e995u;
  for (const gir::RankedWeight& e : r) {
    h = Fnv(h, &e.weight_id, sizeof(e.weight_id));
    h = Fnv(h, &e.rank, sizeof(e.rank));
  }
  return h;
}

}  // namespace perfbench
