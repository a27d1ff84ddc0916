#ifndef GIR_DIST_SHARD_CLIENT_H_
#define GIR_DIST_SHARD_CLIENT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>

#include "core/dataset.h"
#include "core/histogram.h"
#include "core/query_types.h"
#include "core/status.h"
#include "server/client.h"

namespace gir {

/// Fault-handling knobs of one router→shard connection (DESIGN.md §18).
struct ShardClientOptions {
  /// TCP connect deadline per attempt (RemoteClientOptions::connect_ms).
  uint32_t connect_ms = 2000;
  /// Per-syscall IO deadline (SO_RCVTIMEO/SO_SNDTIMEO).
  uint32_t io_ms = 5000;
  /// Retries after the first attempt — idempotent calls only (queries,
  /// ping, info). Mutations are never retried: a failed mutation RPC is
  /// ambiguous (the shard may have applied it before dying), and a blind
  /// resend risks double-apply.
  uint32_t max_retries = 2;
  /// Exponential backoff between retries, capped at backoff_max_ms.
  uint32_t backoff_initial_ms = 10;
  uint32_t backoff_max_ms = 200;
  /// Consecutive failures that open the circuit breaker.
  uint32_t breaker_threshold = 4;
  /// How long an open breaker rejects work before letting one half-open
  /// probe through.
  uint32_t breaker_cooldown_ms = 1000;
};

/// Circuit breaker state, exposed for STATS.
enum class BreakerState : uint8_t { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

/// ShardClient — the router's connection to one remote `gir_serve` shard:
/// a RemoteClient wrapped with connect/IO deadlines, bounded retry with
/// exponential backoff (idempotent calls only), a consecutive-failure
/// circuit breaker, and per-shard RPC accounting (RTT histogram, retry /
/// reconnect / failure counters) for the router's STATS page.
///
/// Threading: exactly one lane thread drives the RPC methods (the
/// router's per-shard FIFO lane — the same serial discipline the
/// in-process ShardedGirIndex gives each shard). The stats snapshot and
/// the breaker query are atomic and may be read from any thread.
class ShardClient {
 public:
  ShardClient(std::string host, uint16_t port, ShardClientOptions options);

  const std::string& host() const { return host_; }
  uint16_t port() const { return port_; }

  /// (Re)establishes the connection and the GIRNET01 handshake. Counted
  /// as a reconnect after the first success.
  Status Connect();
  bool connected() const { return client_.has_value(); }

  /// Breaker gate for query fan-out: true when the breaker is closed, or
  /// open but past its cooldown (the caller's attempt is the half-open
  /// probe). Mutations bypass this gate — a skipped broadcast would
  /// desync the shard just as surely as a failed one, so they always try.
  bool BreakerAllows();
  BreakerState breaker_state() const;

  // ---- Idempotent calls (bounded retry + reconnect + backoff) ----------

  Status Ping(uint64_t* version_out = nullptr);
  Result<NetInfo> Info(uint64_t* version_out = nullptr);
  Result<ReverseTopKResult> ReverseTopK(ConstRow q, uint32_t k,
                                        uint64_t* version_out);
  Result<ReverseKRanksResult> ReverseKRanksCapped(ConstRow q, uint32_t k,
                                                  int64_t rank_cap,
                                                  uint64_t* version_out);
  Result<std::vector<ReverseTopKResult>> ReverseTopKBatch(
      const Dataset& queries, uint32_t k, uint64_t* version_out);
  Result<std::vector<ReverseKRanksResult>> ReverseKRanksBatch(
      const Dataset& queries, uint32_t k, uint64_t* version_out);

  // ---- Mutations (single attempt; failure is ambiguous) ----------------

  Status InsertPoint(ConstRow p, uint64_t* version_out);
  Status InsertWeight(ConstRow w, uint64_t* version_out);
  Status DeletePoint(uint64_t local_live_id, uint64_t* version_out);
  Status DeleteWeight(uint64_t local_live_id, uint64_t* version_out);
  Status Compact(uint64_t* version_out);

  // ---- STATS accounting ------------------------------------------------

  struct StatsSnapshot {
    uint64_t requests = 0;
    uint64_t failures = 0;
    uint64_t retries = 0;
    uint64_t reconnects = 0;
    uint64_t breaker_opens = 0;
    BreakerState breaker = BreakerState::kClosed;
    Pow2Histogram::Counts rtt_hist{};
  };
  StatsSnapshot Snapshot() const;

 private:
  using Clock = std::chrono::steady_clock;

  /// Runs `call` against the live RemoteClient with up to max_retries
  /// reconnect-and-resend rounds (idempotent paths) or exactly one
  /// attempt (mutations). Updates the breaker and the counters.
  template <typename Fn>
  Status Call(bool idempotent, uint64_t* version_out, Fn&& call);

  void RecordOutcome(bool ok);

  std::string host_;
  uint16_t port_;
  ShardClientOptions options_;
  std::optional<RemoteClient> client_;
  bool ever_connected_ = false;

  /// Breaker: consecutive failures and the cooldown horizon (steady-clock
  /// nanoseconds since epoch; 0 = closed). Atomics so any thread can
  /// render STATS while the lane thread runs RPCs.
  std::atomic<uint32_t> consecutive_failures_{0};
  std::atomic<int64_t> open_until_ns_{0};

  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> failures_{0};
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> reconnects_{0};
  std::atomic<uint64_t> breaker_opens_{0};
  Pow2Histogram rtt_hist_;
};

}  // namespace gir

#endif  // GIR_DIST_SHARD_CLIENT_H_
