#include "checker.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <unordered_map>

#include "core/thread_pool.h"

namespace perfbench {

Records OracleRecords(const WorkloadSpec& spec, uint64_t seed,
                      const Inputs& inputs, size_t main_ops,
                      const Records& system, OracleTimings* timings) {
  auto built =
      gir::DynamicGirIndex::Build(inputs.points, inputs.weights,
                                  OracleOptions());
  if (!built.ok()) return {};
  gir::DynamicGirIndex oracle = std::move(built).value();
  const std::unique_ptr<Target> target = DynamicTarget(&oracle);

  OpSequence seq(spec, seed, inputs);
  for (const Op& op : seq.Prelude()) target->Run(op, spec.k);
  std::vector<Op> ops = seq.Warmup();
  for (size_t i = 0; i < main_ops; ++i) ops.push_back(seq.NextMain());
  for (Op& op : seq.Tail()) ops.push_back(std::move(op));

  Records expected(std::min(ops.size(), system.size()));
  const size_t threads =
      std::min<size_t>(4, std::max(1u, std::thread::hardware_concurrency()));
  gir::ThreadPool pool(threads);
  // Distinct queries since the last mutation, by (pool slot, verb): the
  // hot-read stream repeats a small pool, so each is answered once.
  std::unordered_map<uint64_t, size_t> first_of;
  std::vector<size_t> pending;
  auto flush = [&] {
    pool.ParallelFor(0, pending.size(), 1, [&](size_t b, size_t e) {
      for (size_t j = b; j < e; ++j) {
        const size_t i = pending[j];
        expected[i] = target->Run(ops[i], spec.k);
      }
    });
    pending.clear();
  };
  std::vector<std::pair<size_t, size_t>> copies;  // (record, answered by)
  if (timings != nullptr) {
    timings->mutation_us.assign(expected.size(), std::nan(""));
    timings->mutation_start.resize(expected.size());
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    const Op& op = ops[i];
    if (IsQuery(op.kind)) {
      if (op.pool_slot != UINT32_MAX) {
        const uint64_t key = uint64_t{op.pool_slot} * 2 +
                             (op.kind == OpKind::kRkr ? 1 : 0);
        const auto [it, fresh] = first_of.emplace(key, i);
        if (!fresh) {
          copies.emplace_back(i, it->second);
          continue;
        }
      }
      pending.push_back(i);
      continue;
    }
    flush();
    for (const auto& [to, from] : copies) expected[to].digest = expected[from].digest;
    copies.clear();
    first_of.clear();
    if (system[i].status == kStatusOk) {
      const uint64_t generation = oracle.generation();
      const auto t0 = std::chrono::steady_clock::now();
      if (timings != nullptr) timings->mutation_start[i] = t0;
      expected[i] = target->Run(op, spec.k);
      const double us = std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      if (timings != nullptr && oracle.generation() != generation) {
        timings->compact_ms.push_back(us / 1000.0);
      } else if (timings != nullptr) {
        timings->mutation_us[i] = us;
      }
    }
  }
  flush();
  for (const auto& [to, from] : copies) expected[to].digest = expected[from].digest;
  for (size_t i = 0; i < expected.size(); ++i) expected[i].kind = ops[i].kind;
  return expected;
}

CheckResult Compare(const Records& expected, const Records& got,
                    bool check_versions) {
  CheckResult r;
  uint64_t last_version = 0;
  auto mismatch = [&](size_t i, const char* what) {
    if (r.mismatches++ == 0) {
      r.first_mismatch = "op " + std::to_string(i) + " (" +
                         OpKindName(got[i].kind) + "): " + what;
    }
  };
  if (expected.size() != got.size()) {
    r.mismatches = 1;
    r.first_mismatch = "oracle answered " + std::to_string(expected.size()) +
                       " of " + std::to_string(got.size()) + " operations";
    return r;
  }
  for (size_t i = 0; i < got.size(); ++i) {
    const OpOutcome& g = got[i];
    ++r.checked;
    switch (g.status) {
      case kStatusError: ++r.errors; continue;
      case kStatusOverloaded: ++r.overloaded; continue;
      case kStatusDegraded: ++r.degraded; continue;
      default: break;
    }
    if (IsQuery(g.kind)) {
      if (g.digest != expected[i].digest) mismatch(i, "answer differs");
      if (check_versions && g.version < last_version) {
        mismatch(i, "version went backwards");
      }
    } else {
      if (expected[i].status != kStatusOk) {
        mismatch(i, "oracle rejected an acked mutation");
      }
      if (check_versions && g.version <= last_version) {
        mismatch(i, "mutation version did not advance");
      }
    }
    last_version = std::max(last_version, g.version);
  }
  return r;
}

}  // namespace perfbench
