#ifndef PERFBENCH_OPS_H_
#define PERFBENCH_OPS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "core/dataset.h"
#include "core/query_types.h"

namespace perfbench {

enum class Workload { kColdRead, kHotRead, kDurableChurn, kRouted };

std::optional<Workload> ParseWorkload(std::string_view name);
const char* WorkloadName(Workload w);

/// Operation kinds, in the order the mix tables below list them.
enum class OpKind : uint8_t {
  kRtk = 0,
  kRkr = 1,
  kInsertPoint = 2,
  kDeletePoint = 3,
  kInsertWeight = 4,
  kDeleteWeight = 5,
};
constexpr size_t kOpKinds = 6;
using Mix = std::array<uint32_t, kOpKinds>;

inline bool IsQuery(OpKind k) {
  return k == OpKind::kRtk || k == OpKind::kRkr;
}
const char* OpKindName(OpKind k);

/// One client operation. `row` is the query or inserted vector (empty for
/// deletes), `id` the live id a delete names. Hot-read queries also carry
/// their pool slot so the checker can answer each distinct query once.
struct Op {
  OpKind kind = OpKind::kRtk;
  std::vector<double> row;
  uint64_t id = 0;
  uint32_t pool_slot = UINT32_MAX;
};

/// Everything that defines a workload besides its seed.
struct WorkloadSpec {
  Workload workload = Workload::kColdRead;
  size_t dim = 8;
  size_t points = 50000;
  size_t weights = 20000;
  size_t shards = 2;
  uint32_t k = 10;
  /// Timed-phase mix: exact counts per block of sum(mix) operations, each
  /// block shuffled, so every run sees the same proportions.
  Mix mix{};
  /// Mutations applied before the stack starts (durable_churn: the WAL
  /// tail a restart replays).
  size_t prelude = 0;
  /// Distinct rows of the hot-read pool (0 = queries are fresh rows).
  size_t pool = 0;
  /// Fixed-count mutation phase after the main one (read-only
  /// workloads, so their mutation latency is measured without touching
  /// the read phase): insert/delete pairs that leave the index its size.
  size_t tail = 0;
  /// Main-phase operations per second of --seconds in a measured run: a
  /// fixed count, so every run of a seed does the same work on the same
  /// state trajectory (durable_churn's index grows over a run). Sized
  /// to take about --seconds on a 4-core host.
  size_t ops_per_second = 0;
  /// Main-phase operations of the traced run (fixed, so counts repeat).
  size_t trace_ops = 0;
  /// Setups per measured run; setup_s is their median.
  size_t setup_reps = 3;
};

WorkloadSpec SpecFor(Workload w);

/// The base sets every stack of a run is built from.
struct Inputs {
  gir::Dataset points;
  gir::Dataset weights;
  gir::Dataset pool;  // hot_read only
  Inputs() : points(1), weights(1), pool(1) {}
};

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed);

/// The seeded operation sequence of one run, in phases: Prelude(), then
/// Warmup(), then any number of NextMain(), then Tail(). Two sequences
/// built from the same spec and seed and called in the same order yield
/// identical operations; the checker relies on that to regenerate what
/// the client sent.
class OpSequence {
 public:
  OpSequence(const WorkloadSpec& spec, uint64_t seed, const Inputs& inputs);

  std::vector<Op> Prelude();
  /// hot_read: every pool row once per verb (RTK block, then RKR block).
  std::vector<Op> Warmup();
  Op NextMain();
  std::vector<Op> Tail();

 private:
  Op Draw(OpKind kind);
  OpKind NextKind(const Mix& mix, std::vector<OpKind>* block);
  double Unit() { return static_cast<double>(rng_() >> 11) * 0x1.0p-53; }

  const WorkloadSpec spec_;
  const Inputs& inputs_;
  std::mt19937_64 rng_;
  size_t live_points_;
  size_t live_weights_;
  std::vector<OpKind> main_block_;
  std::vector<double> zipf_cdf_;
};

/// FNV-1a digest of an operation (kind, id, row bytes), chained.
uint64_t DigestOp(uint64_t h, const Op& op);

/// Digests of answers; a recorded digest is compared with the oracle's.
uint64_t DigestAnswer(const gir::ReverseTopKResult& r);
uint64_t DigestAnswer(const gir::ReverseKRanksResult& r);

}  // namespace perfbench

#endif  // PERFBENCH_OPS_H_
