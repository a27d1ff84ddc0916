#ifndef GIR_CORE_HISTOGRAM_H_
#define GIR_CORE_HISTOGRAM_H_

#include <array>
#include <atomic>
#include <cstdint>

namespace gir {

/// Lock-free histogram over power-of-two buckets: bucket b counts samples
/// in [2^b, 2^(b+1)) (bucket 0 also takes 0; the last bucket takes
/// everything above). Exact for the batch sizes the server forms (they cap
/// at a power of two) and within a factor of two for latencies, with no
/// per-sample allocation. Writers and readers may race freely: counts are
/// relaxed atomics, observational only.
class Pow2Histogram {
 public:
  static constexpr int kBuckets = 32;
  using Counts = std::array<uint64_t, kBuckets>;

  static int Bucket(uint64_t v) {
    int b = 0;
    while (v > 1 && b < kBuckets - 1) {
      v >>= 1;
      ++b;
    }
    return b;
  }

  void Record(uint64_t v) {
    counts_[Bucket(v)].fetch_add(1, std::memory_order_relaxed);
  }

  Counts Snapshot() const {
    Counts out{};
    for (int b = 0; b < kBuckets; ++b) {
      out[b] = counts_[b].load(std::memory_order_relaxed);
    }
    return out;
  }

  /// Value below which a fraction `q` of the samples fall, taken as the
  /// upper edge of the bucket holding the q-th sample; 0 when empty.
  uint64_t Quantile(double q) const {
    const Counts counts = Snapshot();
    uint64_t total = 0;
    for (uint64_t c : counts) total += c;
    if (total == 0) return 0;
    const uint64_t target =
        static_cast<uint64_t>(q * static_cast<double>(total));
    uint64_t seen = 0;
    for (int b = 0; b < kBuckets; ++b) {
      seen += counts[b];
      if (seen > target) return uint64_t{1} << (b + 1);
    }
    return uint64_t{1} << kBuckets;
  }

 private:
  std::atomic<uint64_t> counts_[kBuckets] = {};
};

}  // namespace gir

#endif  // GIR_CORE_HISTOGRAM_H_
