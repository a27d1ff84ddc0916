#ifndef PERFBENCH_CHECKER_H_
#define PERFBENCH_CHECKER_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "ops.h"
#include "stacks.h"

namespace perfbench {

/// The recorded operations of one run, in the order the client issued
/// them: the hot-read warmup, the main phase, then the tail.
using Records = std::vector<OpOutcome>;

/// Serial mutation timings of the oracle pass (the traced run's
/// dynamic.* metrics).
struct OracleTimings {
  /// Per record: µs of the mutation, NaN for queries and for mutations
  /// that triggered a compaction.
  std::vector<double> mutation_us;
  /// Per record: when the oracle started it (mutations only).
  std::vector<std::chrono::steady_clock::time_point> mutation_start;
  /// Durations of the mutations that compacted, ms.
  std::vector<double> compact_ms;
};

/// The oracle's answers for the same operations: one DynamicGirIndex
/// built from the same inputs and fed the same stream (prelude first).
/// Mutations the system rejected are skipped, since the system did not
/// apply them either. Query answers between two mutations are computed
/// in parallel; hot-read queries once per distinct pool slot.
Records OracleRecords(const WorkloadSpec& spec, uint64_t seed,
                      const Inputs& inputs, size_t main_ops,
                      const Records& system,
                      OracleTimings* timings = nullptr);

struct CheckResult {
  size_t checked = 0;
  size_t mismatches = 0;
  size_t errors = 0;
  size_t overloaded = 0;
  size_t degraded = 0;
  std::string first_mismatch;
  size_t failed() const { return mismatches + errors + overloaded + degraded; }
};

/// Compares recorded answers with the oracle's. With `check_versions`, a
/// successful mutation's version stamp must exceed every earlier stamp
/// and a query's must not go below it (one client: version order is op
/// order).
CheckResult Compare(const Records& expected, const Records& got,
                    bool check_versions);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKER_H_
