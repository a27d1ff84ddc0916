#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>

#include "ops.h"

namespace perfbench {

/// The traced run: replays `spec.trace_ops` main operations (plus the
/// workload's warmup and tail) through one fresh stack per layer depth,
/// records spans, writes them to `trace_out` (JSON lines; skipped when
/// empty) and prints the per-layer metrics. Returns the exit code.
int RunTraced(const WorkloadSpec& spec, uint64_t seed, const std::string& dir,
              const std::string& trace_out);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
