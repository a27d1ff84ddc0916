#include "phase.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Rows per warmup wire batch.
constexpr size_t kWarmupBatch = 100;

}  // namespace

gir::Status PrepareFiles(const WorkloadSpec& spec, const Inputs& inputs,
                         const std::vector<Op>& prelude,
                         const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return gir::Status::IOError("cannot create " + dir);
  switch (spec.workload) {
    case Workload::kDurableChurn:
      return PrepareDurableFiles(spec, inputs, prelude, dir);
    default:
      return gir::Status::OK();
  }
}

gir::Result<ClientStack> BootClientStack(const WorkloadSpec& spec,
                                         const Inputs& inputs,
                                         const std::string& dir) {
  ClientStack stack;
  switch (spec.workload) {
    case Workload::kDurableChurn: {
      auto s = RestartDurable(spec, dir, /*serve=*/true, /*attach_wal=*/true);
      if (!s.ok()) return s.status();
      stack.served = std::move(s).value();
      break;
    }
    case Workload::kRouted: {
      // The envelope is derived from the inputs, so writing it is set-up.
      gir::Status written = PrepareEnvelope(spec, inputs, dir);
      if (!written.ok()) return written;
      auto s = BootRouted(dir, /*router=*/true, /*front=*/true);
      if (!s.ok()) return s.status();
      stack.routed = std::move(s).value();
      break;
    }
    default: {
      auto s = BuildServed(spec, inputs);
      if (!s.ok()) return s.status();
      stack.served = std::move(s).value();
      break;
    }
  }
  return stack;
}

gir::Status CopyTree(const std::string& from, const std::string& to) {
  std::error_code ec;
  std::filesystem::remove_all(to, ec);
  std::filesystem::copy(from, to, std::filesystem::copy_options::recursive,
                        ec);
  if (ec) return gir::Status::IOError("cannot copy " + from + " to " + to);
  return gir::Status::OK();
}

gir::Status WarmupPool(gir::RemoteClient& client, const std::vector<Op>& ops,
                       uint32_t k, Records* records) {
  for (size_t begin = 0; begin < ops.size(); begin += kWarmupBatch) {
    const size_t end = std::min(ops.size(), begin + kWarmupBatch);
    gir::Dataset batch(ops[begin].row.size());
    for (size_t i = begin; i < end; ++i) {
      // One verb per batch: Warmup() lists the RTK rows, then the RKR rows.
      if (ops[i].kind != ops[begin].kind) {
        return gir::Status::InvalidArgument("mixed warmup batch");
      }
      batch.AppendUnchecked(ops[i].row);
    }
    std::vector<uint64_t> digests;
    gir::Status status;
    if (ops[begin].kind == OpKind::kRtk) {
      auto r = client.ReverseTopKBatch(batch, k);
      status = r.status();
      if (r.ok()) {
        for (const auto& a : r.value()) digests.push_back(DigestAnswer(a));
      }
    } else {
      auto r = client.ReverseKRanksBatch(batch, k);
      status = r.status();
      if (r.ok()) {
        for (const auto& a : r.value()) digests.push_back(DigestAnswer(a));
      }
    }
    if (!status.ok()) return status;
    for (size_t i = begin; i < end; ++i) {
      OpOutcome o;
      o.kind = ops[i].kind;
      o.digest = digests[i - begin];
      o.version = client.last_index_version();
      records->push_back(o);
    }
  }
  return gir::Status::OK();
}

size_t PhaseResult::timed_ops() const {
  size_t n = 0;
  for (double us : op_us) n += std::isfinite(us) ? 1 : 0;
  return n;
}

size_t PhaseResult::log_bytes() const {
  return records.size() * sizeof(OpOutcome) +
         (op_us.size() + op_start_s.size()) * sizeof(double) +
         in_main.size() / 8;
}

PhaseResult RunPhase(Target& target, OpSequence& seq, const WorkloadSpec& spec,
                     size_t main_ops, double cap_seconds, Records warmup,
                     std::vector<Clock::time_point>* starts) {
  PhaseResult phase;
  phase.records = std::move(warmup);
  phase.op_us.assign(phase.records.size(), std::nan(""));
  phase.op_start_s.assign(phase.records.size(), std::nan(""));
  phase.in_main.assign(phase.records.size(), false);
  const Clock::time_point start = Clock::now();
  auto run = [&](const Op& op, bool main) {
    const Clock::time_point t0 = Clock::now();
    if (starts != nullptr) starts->push_back(t0);
    OpOutcome o = target.Run(op, spec.k);
    phase.op_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
    phase.op_start_s.push_back(
        std::chrono::duration<double>(t0 - start).count());
    phase.in_main.push_back(main);
    o.kind = op.kind;
    phase.records.push_back(o);
  };
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(cap_seconds));
  while (phase.main_ops < main_ops &&
         (cap_seconds <= 0 || Clock::now() < deadline)) {
    run(seq.NextMain(), true);
    ++phase.main_ops;
  }
  phase.main_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  for (const Op& op : seq.Tail()) run(op, false);
  phase.seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  return phase;
}

Metrics LatencyMetrics(const PhaseResult& phase,
                       std::vector<double>* window_rates) {
  constexpr size_t kWindows = 10;
  // A window's p90 needs at least ten samples beyond it.
  constexpr size_t kMinWindowSamples = 100;
  // Cuts `idx` (record indices in issue order) into `n` runs of equal
  // length.
  auto cut = [](const std::vector<size_t>& idx, size_t n) {
    std::vector<std::vector<size_t>> w(std::max<size_t>(n, 1));
    for (size_t j = 0; j < idx.size(); ++j) {
      w[j * w.size() / idx.size()].push_back(idx[j]);
    }
    return w;
  };
  std::vector<size_t> main;
  for (size_t i = 0; i < phase.records.size(); ++i) {
    if (std::isfinite(phase.op_us[i]) && phase.in_main[i]) main.push_back(i);
  }

  std::vector<double> rate;
  for (const auto& w : cut(main, main.size() >= kWindows ? kWindows : 1)) {
    if (w.empty()) continue;
    const double first = phase.op_start_s[w.front()];
    const double last =
        phase.op_start_s[w.back()] + phase.op_us[w.back()] / 1e6;
    rate.push_back(static_cast<double>(w.size()) / (last - first));
  }
  if (window_rates != nullptr) *window_rates = rate;

  // Median over windows of each window's q-quantile of the timed ops
  // `keep` selects; as many windows (up to ten) as give each window
  // kMinWindowSamples ops.
  auto windowed = [&](auto keep, double q) {
    std::vector<size_t> idx;
    for (size_t i = 0; i < phase.records.size(); ++i) {
      if (std::isfinite(phase.op_us[i]) && keep(i)) idx.push_back(i);
    }
    if (idx.empty()) return 0.0;
    std::vector<double> per_window;
    for (const auto& w : cut(idx, std::min(kWindows,
                                           idx.size() / kMinWindowSamples))) {
      std::vector<double> us;
      for (size_t i : w) us.push_back(phase.op_us[i]);
      per_window.push_back(Quantile(us, q));
    }
    return Median(per_window);
  };
  auto main_kind = [&](OpKind k) {
    return [&, k](size_t i) {
      return phase.in_main[i] && phase.records[i].kind == k;
    };
  };
  auto is_mutation = [&](size_t i) { return !IsQuery(phase.records[i].kind); };
  // Mutations of the main phase where its mix has them, else of the tail.
  const bool main_mutations = std::any_of(
      main.begin(), main.end(), [&](size_t i) { return is_mutation(i); });
  auto mutation = [&](size_t i) {
    return is_mutation(i) && phase.in_main[i] == main_mutations;
  };
  return {
      {"ops_per_s", Median(rate), "1/s"},
      {"rtk_p50_us", windowed(main_kind(OpKind::kRtk), 0.5), "us"},
      {"rtk_p90_us", windowed(main_kind(OpKind::kRtk), 0.9), "us"},
      {"rkr_p50_us", windowed(main_kind(OpKind::kRkr), 0.5), "us"},
      {"rkr_p90_us", windowed(main_kind(OpKind::kRkr), 0.9), "us"},
      {"mut_p50_us", windowed(mutation, 0.5), "us"},
      {"mut_p90_us", windowed(mutation, 0.9), "us"},
  };
}

}  // namespace perfbench
