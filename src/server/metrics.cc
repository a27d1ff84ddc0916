#include "server/metrics.h"

#include <cinttypes>
#include <cstdio>

namespace gir {

namespace {

void AppendLine(std::string* out, const char* key, uint64_t value) {
  char line[128];
  std::snprintf(line, sizeof(line), "%s %" PRIu64 "\n", key, value);
  out->append(line);
}

void AppendHistogram(std::string* out, const char* name,
                     const Pow2Histogram& hist) {
  const Pow2Histogram::Counts counts = hist.Snapshot();
  for (int b = 0; b < Pow2Histogram::kBuckets; ++b) {
    const uint64_t count = counts[b];
    if (count == 0) continue;
    char line[160];
    std::snprintf(line, sizeof(line), "%s[%" PRIu64 ",%" PRIu64 ") %" PRIu64
                  "\n",
                  name, uint64_t{1} << b, uint64_t{1} << (b + 1), count);
    out->append(line);
  }
}

}  // namespace

std::string ServerMetrics::Render() const {
  const auto uptime = std::chrono::duration_cast<std::chrono::microseconds>(
                          Clock::now() - start_)
                          .count();
  const uint64_t completed = completed_requests_.load(kRelaxed);
  const uint64_t batches = batches_.load(kRelaxed);
  const uint64_t queries = completed_queries_.load(kRelaxed);

  std::string out;
  out.reserve(1024);
  AppendLine(&out, "uptime_us", static_cast<uint64_t>(uptime));
  AppendLine(&out, "connections_accepted", connections_.load(kRelaxed));
  AppendLine(&out, "requests_received", requests_.load(kRelaxed));
  AppendLine(&out, "requests_completed", completed);
  AppendLine(&out, "queries_completed", queries);
  AppendLine(&out, "batches_dispatched", batches);
  AppendLine(&out, "rejected_overload", rejected_overload_.load(kRelaxed));
  AppendLine(&out, "rejected_shutdown", rejected_shutdown_.load(kRelaxed));
  AppendLine(&out, "deadline_expired", deadline_expired_.load(kRelaxed));
  AppendLine(&out, "malformed_frames", malformed_.load(kRelaxed));
  AppendLine(&out, "mutations_applied", mutations_.load(kRelaxed));
  AppendLine(&out, "compactions", compactions_.load(kRelaxed));
  AppendLine(&out, "queue_depth", queue_depth_.load(kRelaxed));
  // Block-max pruning effectiveness across every scan the server ran:
  // skipped points never entered a bound accumulator; the rate is skipped
  // over (skipped + streamed), in whole percent.
  const uint64_t streamed = scan_points_streamed_.load(kRelaxed);
  const uint64_t skipped = scan_points_skipped_.load(kRelaxed);
  AppendLine(&out, "scan_points_streamed", streamed);
  AppendLine(&out, "scan_points_skipped", skipped);
  AppendLine(&out, "scan_blocks_skipped", scan_blocks_skipped_.load(kRelaxed));
  AppendLine(&out, "scan_blocks_descended",
             scan_blocks_descended_.load(kRelaxed));
  AppendLine(&out, "scan_skip_rate_pct",
             streamed + skipped > 0 ? skipped * 100 / (streamed + skipped)
                                    : 0);
  AppendLine(&out, "qps",
             uptime > 0 ? completed * 1000000u /
                              static_cast<uint64_t>(uptime)
                        : 0);
  AppendLine(&out, "mean_batch_queries",
             batches > 0 ? batched_queries_.load(kRelaxed) / batches : 0);
  AppendLine(&out, "latency_p50_us_le", latency_hist_.Quantile(0.50));
  AppendLine(&out, "latency_p99_us_le", latency_hist_.Quantile(0.99));
  // Result-cache effectiveness (server/result_cache.h): hits served
  // without a scan, misses that fell through, entries an invalidation
  // pass extended across a mutation vs dropped, and the live footprint.
  const uint64_t hits = cache_hits_.load(kRelaxed);
  const uint64_t misses = cache_misses_.load(kRelaxed);
  AppendLine(&out, "cache_hits", hits);
  AppendLine(&out, "cache_misses", misses);
  AppendLine(&out, "cache_hit_rate_pct",
             hits + misses > 0 ? hits * 100 / (hits + misses) : 0);
  AppendLine(&out, "cache_evictions", cache_evictions_.load(kRelaxed));
  AppendLine(&out, "cache_extensions", cache_extensions_.load(kRelaxed));
  AppendLine(&out, "cache_invalidations",
             cache_invalidations_.load(kRelaxed));
  AppendLine(&out, "cache_bytes", cache_bytes_.load(kRelaxed));
  AppendLine(&out, "cache_entries", cache_entries_.load(kRelaxed));
  // Per-tenant QoS accounting: registered tenants by id, then one
  // "tenant_other" row aggregating unregistered ids.
  for (size_t i = 0; i <= tenant_count_; ++i) {
    const bool other = i == tenant_count_;
    const TenantSlot& slot =
        other ? tenant_slots_[kMaxTenantSlots - 1] : tenant_slots_[i];
    char prefix[32];
    if (other) {
      std::snprintf(prefix, sizeof(prefix), "tenant_other");
    } else {
      std::snprintf(prefix, sizeof(prefix), "tenant%u",
                    static_cast<unsigned>(tenant_ids_[i]));
    }
    char key[64];
    std::snprintf(key, sizeof(key), "%s.admitted", prefix);
    AppendLine(&out, key, slot.admitted.load(kRelaxed));
    std::snprintf(key, sizeof(key), "%s.served", prefix);
    AppendLine(&out, key, slot.served.load(kRelaxed));
    std::snprintf(key, sizeof(key), "%s.rejected_rate_limited", prefix);
    AppendLine(&out, key, slot.rejected_rate_limited.load(kRelaxed));
    std::snprintf(key, sizeof(key), "%s.queue_depth", prefix);
    AppendLine(&out, key, slot.queue_depth.load(kRelaxed));
  }
  AppendHistogram(&out, "batch_queries", batch_hist_);
  AppendHistogram(&out, "latency_us", latency_hist_);
  return out;
}

}  // namespace gir
