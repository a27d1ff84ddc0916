#ifndef GIR_SERVER_METRICS_H_
#define GIR_SERVER_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

#include "core/histogram.h"

namespace gir {

/// ServerMetrics — lock-free counters behind the STATS verb. Writers are
/// the connection and scheduler threads (relaxed atomics; the metrics are
/// observational, never part of a correctness decision); the reader
/// renders a plaintext snapshot in the `key value` style of
/// QueryStats::ToString().
///
/// Histograms are Pow2Histograms (core/histogram.h): exact for the batch
/// sizes the scheduler forms and within a factor of two for latencies.
class ServerMetrics {
 public:
  ServerMetrics() : start_(Clock::now()) {}

  void RecordAccepted() { connections_.fetch_add(1, kRelaxed); }
  void RecordRequest() { requests_.fetch_add(1, kRelaxed); }
  void RecordMalformed() { malformed_.fetch_add(1, kRelaxed); }
  void RecordRejectedOverload() { rejected_overload_.fetch_add(1, kRelaxed); }
  void RecordRejectedShutdown() { rejected_shutdown_.fetch_add(1, kRelaxed); }
  void RecordDeadlineExpired() { deadline_expired_.fetch_add(1, kRelaxed); }
  void RecordMutation() { mutations_.fetch_add(1, kRelaxed); }
  void RecordCompaction() { compactions_.fetch_add(1, kRelaxed); }

  /// One scheduler dispatch of `batch_queries` coalesced query rows
  /// answering `batch_requests` wire requests.
  void RecordBatch(uint64_t batch_requests, uint64_t batch_queries) {
    batches_.fetch_add(1, kRelaxed);
    completed_requests_.fetch_add(batch_requests, kRelaxed);
    completed_queries_.fetch_add(batch_queries, kRelaxed);
    batched_queries_.fetch_add(batch_queries, kRelaxed);
    batch_hist_.Record(batch_queries);
  }

  void RecordLatencyUs(uint64_t us) { latency_hist_.Record(us); }

  /// Scan-work accounting from a dispatched batch's QueryStats: points the
  /// engine streamed through its bound accumulators vs points the
  /// block-max cursor settled without touching, plus the block-granular
  /// decisions behind them.
  void RecordScanWork(uint64_t points_streamed, uint64_t points_skipped,
                      uint64_t blocks_skipped, uint64_t blocks_descended) {
    scan_points_streamed_.fetch_add(points_streamed, kRelaxed);
    scan_points_skipped_.fetch_add(points_skipped, kRelaxed);
    scan_blocks_skipped_.fetch_add(blocks_skipped, kRelaxed);
    scan_blocks_descended_.fetch_add(blocks_descended, kRelaxed);
  }

  void SetQueueDepth(uint64_t depth) { queue_depth_.store(depth, kRelaxed); }

  // ---- Result cache (server/result_cache.h) ----------------------------

  /// A request answered wholly from the result cache: it completes
  /// without a scheduler dispatch, so it counts toward completions but
  /// not toward batches.
  void RecordCacheServed(uint64_t requests, uint64_t queries) {
    completed_requests_.fetch_add(requests, kRelaxed);
    completed_queries_.fetch_add(queries, kRelaxed);
  }
  void RecordCacheHit() { cache_hits_.fetch_add(1, kRelaxed); }
  void RecordCacheMiss() { cache_misses_.fetch_add(1, kRelaxed); }
  void RecordCacheEviction() { cache_evictions_.fetch_add(1, kRelaxed); }
  /// Entries whose bracket an invalidation pass extended / dropped.
  void RecordCacheExtensions(uint64_t n) {
    cache_extensions_.fetch_add(n, kRelaxed);
  }
  void RecordCacheInvalidations(uint64_t n) {
    cache_invalidations_.fetch_add(n, kRelaxed);
  }
  void SetCacheBytes(uint64_t bytes) { cache_bytes_.store(bytes, kRelaxed); }
  void SetCacheEntries(uint64_t n) { cache_entries_.store(n, kRelaxed); }

  // ---- Per-tenant QoS --------------------------------------------------

  /// Fixed tenant slots, registered before the server starts (not
  /// thread-safe); traffic from unregistered tenant ids lands on a
  /// shared "other" slot so every request is accounted somewhere.
  static constexpr size_t kMaxTenantSlots = 17;

  /// Registers a slot for `tenant_id`. No-op once the table is full or
  /// the id is already present.
  void RegisterTenant(uint16_t tenant_id) {
    if (tenant_count_ >= kMaxTenantSlots - 1) return;
    for (size_t i = 0; i < tenant_count_; ++i) {
      if (tenant_ids_[i] == tenant_id) return;
    }
    tenant_ids_[tenant_count_++] = tenant_id;
  }

  void RecordTenantAdmitted(uint16_t tenant_id, uint64_t queries) {
    TenantSlot& slot = Slot(tenant_id);
    slot.admitted.fetch_add(queries, kRelaxed);
  }
  void RecordTenantServed(uint16_t tenant_id, uint64_t queries) {
    Slot(tenant_id).served.fetch_add(queries, kRelaxed);
  }
  void RecordTenantRateLimited(uint16_t tenant_id) {
    Slot(tenant_id).rejected_rate_limited.fetch_add(1, kRelaxed);
  }
  void SetTenantQueueDepth(uint16_t tenant_id, uint64_t depth) {
    Slot(tenant_id).queue_depth.store(depth, kRelaxed);
  }

  /// Renders the snapshot served by the STATS verb: one `key value` pair
  /// per line, then the two histograms as `name[lo,hi) count` lines.
  std::string Render() const;

 private:
  using Clock = std::chrono::steady_clock;
  static constexpr std::memory_order kRelaxed = std::memory_order_relaxed;

  struct TenantSlot {
    std::atomic<uint64_t> admitted{0};
    std::atomic<uint64_t> served{0};
    std::atomic<uint64_t> rejected_rate_limited{0};
    std::atomic<uint64_t> queue_depth{0};
  };

  /// Resolves a tenant id to its registered slot; unregistered ids share
  /// the trailing "other" slot. Lock-free: the registry is immutable once
  /// the server starts.
  TenantSlot& Slot(uint16_t tenant_id) {
    for (size_t i = 0; i < tenant_count_; ++i) {
      if (tenant_ids_[i] == tenant_id) return tenant_slots_[i];
    }
    return tenant_slots_[kMaxTenantSlots - 1];
  }

  Clock::time_point start_;
  std::atomic<uint64_t> connections_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> malformed_{0};
  std::atomic<uint64_t> rejected_overload_{0};
  std::atomic<uint64_t> rejected_shutdown_{0};
  std::atomic<uint64_t> deadline_expired_{0};
  std::atomic<uint64_t> mutations_{0};
  std::atomic<uint64_t> compactions_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> completed_requests_{0};
  std::atomic<uint64_t> completed_queries_{0};
  /// Query rows that reached a scheduler batch (cache hits excluded): the
  /// numerator of mean_batch_queries.
  std::atomic<uint64_t> batched_queries_{0};
  std::atomic<uint64_t> queue_depth_{0};
  std::atomic<uint64_t> scan_points_streamed_{0};
  std::atomic<uint64_t> scan_points_skipped_{0};
  std::atomic<uint64_t> scan_blocks_skipped_{0};
  std::atomic<uint64_t> scan_blocks_descended_{0};
  Pow2Histogram batch_hist_;
  Pow2Histogram latency_hist_;

  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> cache_misses_{0};
  std::atomic<uint64_t> cache_evictions_{0};
  std::atomic<uint64_t> cache_extensions_{0};
  std::atomic<uint64_t> cache_invalidations_{0};
  std::atomic<uint64_t> cache_bytes_{0};
  std::atomic<uint64_t> cache_entries_{0};

  size_t tenant_count_ = 0;
  uint16_t tenant_ids_[kMaxTenantSlots] = {};
  TenantSlot tenant_slots_[kMaxTenantSlots];
};

}  // namespace gir

#endif  // GIR_SERVER_METRICS_H_
