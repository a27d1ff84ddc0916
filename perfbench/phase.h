#ifndef PERFBENCH_PHASE_H_
#define PERFBENCH_PHASE_H_

#include <chrono>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "checker.h"
#include "ops.h"
#include "report.h"
#include "stacks.h"

namespace perfbench {

/// The stack a workload's client talks to, whichever shape it has.
struct ClientStack {
  std::unique_ptr<ServedStack> served;
  std::unique_ptr<RoutedStack> routed;
  gir::RemoteClient& client() {
    return served ? *served->client : *routed->client;
  }
};

/// Writes what a workload's setup reads from disk under `dir`: the cold
/// files and WAL for durable_churn. The other workloads start from the
/// in-memory inputs (routed writes its envelope as part of set-up).
gir::Status PrepareFiles(const WorkloadSpec& spec, const Inputs& inputs,
                         const std::vector<Op>& prelude,
                         const std::string& dir);

/// Inputs ready → stack ready to serve the first request. The durable
/// restart reads `dir` in place (pass a fresh copy per stack that will
/// take mutations, see CopyTree); routed writes its envelope there.
gir::Result<ClientStack> BootClientStack(const WorkloadSpec& spec,
                                         const Inputs& inputs,
                                         const std::string& dir);

/// Recursive copy of a prepared directory.
gir::Status CopyTree(const std::string& from, const std::string& to);

/// hot_read warmup: queries every pool row once per verb, as wire batches
/// (the server fills its result cache row by row), recording the answers.
gir::Status WarmupPool(gir::RemoteClient& client, const std::vector<Op>& ops,
                       uint32_t k, Records* records);

/// The timed phase of one client: `main_ops` main operations, then the
/// tail. A positive `cap_seconds` ends the main phase early if it runs that
/// long, so a much slower build still finishes a run in bounded time.
struct PhaseResult {
  Records records;             // every op, the warmup first when present
  std::vector<double> op_us;   // per record; NaN for warmup records
  std::vector<bool> in_main;   // per record: issued in the main phase
  std::vector<double> op_start_s;  // per record: start, s after phase start
  size_t main_ops = 0;
  double main_seconds = 0.0;   // wall time of the main phase
  double seconds = 0.0;        // wall time of main + tail
  size_t timed_ops() const;
  /// Bytes of the per-op logs above, which grow with the op count.
  size_t log_bytes() const;
};

/// `starts` (nullable) receives each timed operation's start time — the
/// traced run's spans; the measured run passes null.
PhaseResult RunPhase(
    Target& target, OpSequence& seq, const WorkloadSpec& spec,
    size_t main_ops, double cap_seconds, Records warmup,
    std::vector<std::chrono::steady_clock::time_point>* starts = nullptr);

/// ops_per_s and the per-verb p50/p90 latencies of a phase. ops_per_s is
/// the median over ten windows of equal op count; each latency figure is
/// the median over up to ten windows of that verb's ops, each window at
/// least 100 ops (ten beyond its p90). So a second or two of interference
/// from outside moves a figure little. Mutation latencies come from the
/// tail when the main mix has none.
/// `window_rates` (nullable) receives each window's ops/s.
Metrics LatencyMetrics(const PhaseResult& phase,
                       std::vector<double>* window_rates = nullptr);

}  // namespace perfbench

#endif  // PERFBENCH_PHASE_H_
