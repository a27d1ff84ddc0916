#ifndef GIR_SERVER_SERVER_H_
#define GIR_SERVER_SERVER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/status.h"
#include "grid/sharded_index.h"
#include "server/frame_server.h"
#include "server/metrics.h"
#include "server/protocol.h"
#include "server/result_cache.h"

namespace gir {

/// Per-tenant QoS configuration (DESIGN.md §16). Requests carry a tenant
/// id in the GIRNET01 header; ids without a TenantOptions entry share a
/// default class (weight 1, no rate limit, no deadline class).
struct TenantOptions {
  uint16_t id = 0;
  /// Deficit-weighted fair queueing weight (>= 1): under saturation a
  /// tenant's served share is proportional to its weight.
  uint32_t weight = 1;
  /// Token-bucket rate limit in query rows per second; 0 = unlimited.
  /// Requests beyond it are rejected kOverloaded ("rate limited") at
  /// admission — an explicit throttle signal, never a silent drop.
  double rate_qps = 0.0;
  /// Bucket capacity in rows; <= 0 defaults to one second of rate.
  double burst = 0.0;
  /// Deadline class: applied to requests that carry no deadline of their
  /// own; 0 = none.
  uint32_t default_deadline_us = 0;
};

/// Tuning knobs of the query server (DESIGN.md §13).
struct ServerOptions {
  /// Address to bind. Tests and the benches stay on loopback.
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  uint16_t port = 0;
  /// Micro-batch target Q_max: the scheduler dispatches once the pending
  /// queries compatible with the oldest request reach this many rows. A
  /// single wire batch larger than this still executes whole — a wire
  /// batch is never split across micro-batches, so each response
  /// corresponds to exactly one serial execution point.
  uint32_t max_batch = 64;
  /// Opt-in hold: how long the oldest pending request may wait for
  /// co-batchable traffic before the scheduler dispatches it undersized.
  /// 0 (the default) is work-conserving: the scheduler takes everything
  /// compatible that is queued the moment it frees up, so a lone request
  /// runs at once and batches form from requests that arrived while the
  /// previous batch executed.
  uint32_t batch_wait_us = 0;
  /// Admission control: maximum queued query rows across all pending
  /// requests. Beyond it requests are answered kOverloaded immediately —
  /// queue memory stays bounded no matter how fast clients push.
  uint32_t queue_limit = 4096;
  /// Connections beyond this are accepted and immediately closed.
  uint32_t max_connections = 256;
  /// Version-bracketed result cache (server/result_cache.h). Disabled
  /// caches execute every query; the bench compares both modes.
  bool enable_cache = true;
  /// Byte budget of the result cache.
  size_t cache_bytes = 8u << 20;
  /// Registered QoS classes; empty = one default class for all traffic
  /// (scheduling degenerates to the plain FIFO it was before).
  std::vector<TenantOptions> tenants;
  /// Reject mutations that do not carry kNetReqFlagRouterWrite with
  /// kReadOnly. Router-owned shards run this way so an out-of-band
  /// writer cannot desync the router's sequence bookkeeping
  /// (DESIGN.md §18); queries are unaffected.
  bool read_only = false;
};

/// QueryServer — a multi-threaded TCP front end over one ShardedGirIndex
/// speaking GIRNET01 (server/protocol.h).
///
/// Thread model. The shared GIRNET01 front end (server/frame_server.h):
/// one accept thread and one reader thread per connection, which decode
/// and check frames; plus one scheduler thread and the sharded router's
/// per-shard workers. Readers answer ping/info/stats and all mutations
/// inline and enqueue query requests for the scheduler. The
/// scheduler coalesces compatible pending requests — same query family
/// and k — into a single ReverseTopKBatch/ReverseKRanksBatch sweep. It is
/// work-conserving: whenever it is free it dispatches whatever compatible
/// work is queued, so batches form from requests that arrived while the
/// previous one executed (plus at most batch_wait_us of opt-in hold).
/// Each micro-batch then fans out to the shards as per-shard sub-batches
/// dispatched concurrently by the router, so a writer only stalls the one
/// shard that owns its weight — 1/N of the read capacity — instead of the
/// whole index.
///
/// Consistency. The sharded router serializes mutations against queries
/// internally (per-shard FIFO admission; DESIGN.md §15), so the server
/// holds no index lock at all. The router's operation sequence number is
/// the version stamp: every successful mutation bumps it, every response
/// carries the sequence its work executed at, and a micro-batch executes
/// against exactly that prefix of the operation stream on every shard.
/// Replaying mutations serially and re-running a query at its stamped
/// version must reproduce the response bit-for-bit (the concurrency
/// tests do exactly that).
///
/// Shutdown() drains gracefully: new queries and mutations are refused
/// with kShuttingDown (ping/info/stats are still answered), the readers
/// are joined, then already-admitted requests are executed and answered
/// and the scheduler is joined. Safe to call twice; the destructor calls
/// it.
class QueryServer {
 public:
  /// The index must outlive the server. The server assumes exclusive
  /// use — no other thread may mutate the index while the server runs
  /// (concurrent callers would skew the version stamps).
  QueryServer(ShardedGirIndex* index, ServerOptions options);
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Binds, listens and spawns the accept + scheduler threads.
  Status Start();

  /// The bound TCP port (after Start(); useful with options.port == 0).
  uint16_t port() const { return front_.port(); }

  /// Graceful drain; blocks until all threads are joined. Idempotent.
  void Shutdown();

  /// The router's operation sequence number: bumped by every successful
  /// mutation. Responses carry the value current when they executed.
  uint64_t index_version() const { return index_->sequence(); }

  const ServerMetrics& metrics() const { return metrics_; }

 private:
  using Clock = std::chrono::steady_clock;

  /// One admitted query request (single or wire-batch form) awaiting the
  /// scheduler. `values` holds num_queries rows of dim doubles.
  struct PendingGroup {
    ConnectionPtr conn;
    NetVerb verb = NetVerb::kReverseTopK;
    uint64_t request_id = 0;
    uint32_t k = 0;
    uint32_t num_queries = 0;
    uint16_t tenant_id = 0;
    std::vector<double> values;
    Clock::time_point enqueue_time;
    /// Zero-initialized epoch when the request carries no deadline.
    Clock::time_point deadline{};
    bool has_deadline = false;
    bool is_rkr = false;
  };

  /// One QoS class: its own FIFO of pending groups plus the deficit
  /// round-robin and token-bucket state, all under queue_mu_. The last
  /// element of tenants_ is the default class for unregistered ids.
  struct TenantQueue {
    TenantOptions opts;
    std::deque<PendingGroup> q;
    size_t queued_rows = 0;
    /// DWFQ deficit in query rows; topped up by quantum * weight when
    /// the class heads a scheduling round, reset when its queue empties.
    int64_t deficit = 0;
    /// Token bucket (rows); refilled lazily from the elapsed time.
    double tokens = 0.0;
    Clock::time_point last_refill;
  };

  void SchedulerLoop();

  /// Routes one decoded, checked request (the front end's handler).
  void Dispatch(const ConnectionPtr& conn, const NetRequest& request);
  void HandleMutation(const ConnectionPtr& conn, const NetRequest& request);
  /// Admits a query request; replies immediately on rejection
  /// (overloaded, rate limited).
  void AdmitQuery(const ConnectionPtr& conn, const NetRequest& request);

  /// Executes one micro-batch outside the queue lock: drops expired
  /// groups, runs the batched sweep under the shared index lock, slices
  /// and sends per-request responses (filling the result cache per row).
  void ExecuteBatch(bool is_rkr, uint32_t k, std::vector<PendingGroup> batch);

  /// Tries to serve a validated query request from the result cache at
  /// one sequence snapshot (all rows must hit). True = response sent.
  bool TryServeFromCache(const ConnectionPtr& conn,
                         const NetRequest& request);

  /// Index of the tenant class for a request id (the trailing default
  /// class when unregistered). Constant after Start().
  size_t TenantSlot(uint16_t tenant_id) const;

  /// Token-bucket admission for `rows` query rows. REQUIRES queue_mu_.
  /// False = the class is over its rate; the caller rejects kOverloaded.
  bool ConsumeTokensLocked(TenantQueue& tenant, uint32_t rows);

  /// Pending query rows compatible with the (is_rkr, k) batch key.
  size_t MatchingQueriesLocked(bool is_rkr, uint32_t k) const;
  /// Any pending group in any class. REQUIRES queue_mu_.
  bool AnyPendingLocked() const;

  /// Renders the per-shard STATS rows appended after the server metrics.
  std::string RenderShardStats() const;

  ShardedGirIndex* index_;
  ServerOptions options_;
  size_t dim_ = 0;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  /// Per-class pending queues (last = default class); scheduled by
  /// deficit round robin so weights bite under saturation.
  std::vector<TenantQueue> tenants_;
  /// DRR cursor: the class that heads the next scheduling round.
  size_t rr_cursor_ = 0;
  /// DRR quantum base in rows (quantum = base * weight); sized at
  /// construction so the deficits, not the batch cap, bind under
  /// contention.
  uint32_t drr_base_ = 1;
  size_t queued_queries_ = 0;
  bool stopping_ = false;

  std::unique_ptr<ResultCache> cache_;
  ServerMetrics metrics_;
  std::thread scheduler_thread_;
  /// Declared last: destroyed first, so no reader outlives the state its
  /// handler touches.
  FrameServer front_;
};

/// Writes `port` (decimal, newline-terminated) to `path` atomically:
/// the contents land in `path + ".tmp"` first and are renamed into place,
/// so a reader polling the path never observes an empty or partial file —
/// the contract scripted callers of `gir_serve --port-file` rely on.
Status WritePortFileAtomic(const std::string& path, uint16_t port);

}  // namespace gir

#endif  // GIR_SERVER_SERVER_H_
