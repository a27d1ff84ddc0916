// perfbench_driver — runs one seeded workload of the repository benchmark
// and prints its metrics as the last line of stdout (see README.md).
//
//   perfbench_driver --workload W --seed N --seconds S --trace 0|1
//                    [--work-dir DIR] [--trace-out FILE] [--corrupt-answer I]
//   perfbench_driver --digest --workload W --seed N
//   perfbench_driver --info
//
// Exit codes: 0 ok, 1 wrong answers, 2 usage or runtime failure.

#include <execinfo.h>
#include <malloc.h>
#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>

#include "checker.h"
#include "ops.h"
#include "phase.h"
#include "report.h"
#include "stacks.h"
#include "trace.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

struct Args {
  std::map<std::string, std::string> kv;
  bool Has(const std::string& k) const { return kv.count(k) > 0; }
  std::string Get(const std::string& k, const std::string& def = "") const {
    const auto it = kv.find(k);
    return it == kv.end() ? def : it->second;
  }
};

int Fail(const std::string& what) {
  std::fprintf(stderr, "error: %s\n", what.c_str());
  return 2;
}

std::string Isa() {
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) return "avx512f";
  if (__builtin_cpu_supports("avx2")) return "avx2";
  return "baseline";
}

/// --digest: the inputs and the traced run's op stream a seed produces,
/// for the determinism tests.
int PrintDigest(const WorkloadSpec& spec, uint64_t seed) {
  const Inputs inputs = MakeInputs(spec, seed);
  uint64_t h = 0;
  OpSequence seq(spec, seed, inputs);
  for (const Op& op : seq.Prelude()) h = DigestOp(h, op);
  for (const Op& op : seq.Warmup()) h = DigestOp(h, op);
  for (size_t i = 0; i < spec.trace_ops; ++i) h = DigestOp(h, seq.NextMain());
  for (const Op& op : seq.Tail()) h = DigestOp(h, op);
  Op base;
  base.row = inputs.points.flat();
  uint64_t inputs_digest = DigestOp(0, base);
  base.row = inputs.weights.flat();
  inputs_digest = DigestOp(inputs_digest, base);
  std::printf("{\"ops\": \"%016llx\", \"inputs\": \"%016llx\"}\n",
              static_cast<unsigned long long>(h),
              static_cast<unsigned long long>(inputs_digest));
  return 0;
}

/// The measured run: setup_s over several setups, then the closed-loop
/// timed phase on the last stack, then the oracle check.
int RunMeasured(const WorkloadSpec& spec, uint64_t seed, double seconds,
                const std::string& dir, long corrupt) {
  const Clock::time_point run_start = Clock::now();
  auto since = [](Clock::time_point t) {
    return std::chrono::duration<double>(Clock::now() - t).count();
  };
  const Inputs inputs = MakeInputs(spec, seed);
  OpSequence seq(spec, seed, inputs);
  const std::vector<Op> prelude = seq.Prelude();
  const std::string files = dir + "/files";
  gir::Status s = PrepareFiles(spec, inputs, prelude, files);
  if (!s.ok()) return Fail("prepare: " + s.ToString());

  const double prepare_s = since(run_start);
  std::vector<double> setup_s;
  ClientStack stack;
  for (size_t rep = 0; rep < spec.setup_reps; ++rep) {
    stack = ClientStack();
    malloc_trim(0);
    const Clock::time_point t0 = Clock::now();
    auto booted = BootClientStack(spec, inputs, files);
    if (!booted.ok()) return Fail("setup: " + booted.status().ToString());
    setup_s.push_back(since(t0));
    stack = std::move(booted).value();
  }

  Records warmup;
  Clock::time_point t0 = Clock::now();
  s = WarmupPool(stack.client(), seq.Warmup(), spec.k, &warmup);
  if (!s.ok()) return Fail("warmup: " + s.ToString());
  const double warmup_s = since(t0);
  const std::unique_ptr<Target> target = ClientTarget(&stack.client());
  PhaseResult phase =
      RunPhase(*target, seq, spec,
               static_cast<size_t>(static_cast<double>(spec.ops_per_second) *
                                   seconds),
               4 * seconds, std::move(warmup));
  // The answer log is the checker's, and its size follows the op count.
  const double rss =
      RssMiB() - static_cast<double>(phase.log_bytes()) / (1024.0 * 1024.0);
  // Compactions during the run, for the summary line.
  uint64_t generations = 0;
  uint64_t bg_compactions = 0;
  if (stack.served) {
    gir::ShardedGirIndex& index = *stack.served->index;
    index.WaitBackgroundIdle();
    index.Quiesce();
    for (size_t s = 0; s < index.shard_count(); ++s) {
      generations += index.shard(s).generation();
    }
    for (const auto& shard : index.ShardStats()) {
      bg_compactions += shard.bg_compactions;
    }
  }
  stack = ClientStack();

  t0 = Clock::now();
  const Records expected =
      OracleRecords(spec, seed, inputs, phase.main_ops, phase.records);
  const double check_s = since(t0);
  if (corrupt >= 0) {
    // Self-test of the checker: one recorded answer is altered.
    long seen = 0;
    for (OpOutcome& o : phase.records) {
      if (IsQuery(o.kind) && seen++ == corrupt) o.digest ^= 1;
    }
  }
  const CheckResult check = Compare(expected, phase.records, true);

  std::vector<double> rates;
  Metrics metrics = LatencyMetrics(phase, &rates);
  metrics.insert(metrics.begin(), {"setup_s", Median(setup_s), "s"});
  metrics.push_back({"rss_mb", rss, "MiB"});
  const size_t attempted = phase.records.size();
  std::printf("%s: %zu ops (%zu timed, %zu main) in %.3f s; setups:",
              WorkloadName(spec.workload), attempted, phase.timed_ops(),
              phase.main_ops, phase.seconds);
  for (double v : setup_s) std::printf(" %.4f", v);
  std::printf(" s; prepare %.2f s, warmup %.2f s, check %.2f s\n", prepare_s,
              warmup_s, check_s);
  std::printf("window ops/s:");
  for (double r : rates) std::printf(" %.0f", r);
  std::printf("; shard generations %llu, background compactions %llu\n",
              static_cast<unsigned long long>(generations),
              static_cast<unsigned long long>(bg_compactions));
  std::printf("check: %zu checked, %zu mismatches, %zu errors, %zu "
              "overloaded, %zu degraded; failed_frac %.6g%s%s\n",
              check.checked, check.mismatches, check.errors, check.overloaded,
              check.degraded,
              static_cast<double>(check.failed()) /
                  static_cast<double>(std::max<size_t>(1, attempted)),
              check.first_mismatch.empty() ? "" : "; first: ",
              check.first_mismatch.c_str());
  PrintResult(check.mismatches == 0, attempted, check.failed(), metrics);
  return check.mismatches == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // A crash prints its stack to stderr, so a failed run says where. One
  // backtrace() up front loads what it needs, so the handler allocates
  // nothing.
  void* first[1];
  backtrace(first, 1);
  for (int sig : {SIGSEGV, SIGBUS, SIGABRT, SIGFPE, SIGILL}) {
    signal(sig, [](int s) {
      void* frames[64];
      const int n = backtrace(frames, 64);
      std::fprintf(stderr, "fatal signal %d\n", s);
      backtrace_symbols_fd(frames, n, 2);
      signal(s, SIG_DFL);
      raise(s);
    });
  }
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Fail("unexpected argument " + key);
    key = key.substr(2);
    if (key == "info" || key == "digest") {
      args.kv[key] = "1";
    } else if (i + 1 < argc) {
      args.kv[key] = argv[++i];
    } else {
      return Fail("--" + key + " needs a value");
    }
  }
  if (args.Has("info")) {
    std::printf("{\"compiler\": \"%s\", \"isa\": \"%s\"}\n", __VERSION__,
                Isa().c_str());
    return 0;
  }
  const auto workload = ParseWorkload(args.Get("workload"));
  if (!workload) return Fail("--workload must be cold_read, hot_read, "
                             "durable_churn or routed");
  const WorkloadSpec spec = SpecFor(*workload);
  const uint64_t seed = std::strtoull(args.Get("seed", "1").c_str(), nullptr, 10);
  if (args.Has("digest")) return PrintDigest(spec, seed);

  const double seconds = std::strtod(args.Get("seconds", "10").c_str(), nullptr);
  if (!(seconds > 0)) return Fail("--seconds must be positive");
  const std::string dir = args.Get("work-dir", ".bench_build/perfbench-work") +
                          "/" + WorkloadName(*workload) + "-" +
                          std::to_string(getpid());
  int rc = 0;
  if (args.Get("trace", "0") == "1") {
    rc = RunTraced(spec, seed, dir, args.Get("trace-out"));
  } else {
    rc = RunMeasured(spec, seed, seconds, dir,
                     std::strtol(args.Get("corrupt-answer", "-1").c_str(),
                                 nullptr, 10));
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return rc;
}
