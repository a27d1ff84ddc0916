#ifndef GIR_DIST_ROUTER_CORE_H_
#define GIR_DIST_ROUTER_CORE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "core/query_types.h"
#include "core/shard_lanes.h"
#include "core/status.h"
#include "core/types.h"
#include "dist/shard_client.h"
#include "grid/index_io.h"
#include "grid/shard_map.h"

namespace gir {

/// One remote shard endpoint.
struct ShardEndpoint {
  std::string host;
  uint16_t port = 0;
};

/// Coverage metadata attached to every routed operation: which shards
/// contributed. `degraded` is true when any configured shard is missing
/// from `coverage` — the answer/ack is exact over the covered shards and
/// silently missing the rest, never a wrong merge (DESIGN.md §18).
struct DistCoverage {
  uint64_t version = 0;  ///< The router's admitted sequence number.
  uint64_t coverage = 0;
  uint32_t shard_count = 0;
  bool degraded = false;
};

/// DistRouter — the network half of the PR 7 scale-out story: the
/// ShardedGirIndex admission protocol reproduced over GIRNET01 against N
/// remote `gir_serve` shard processes (DESIGN.md §18).
///
/// Consistency model. One FIFO lane per shard (core/shard_lanes.h, the
/// executor ShardedGirIndex runs on) driving one blocking connection.
/// Admission = posting onto the lanes under seq_mu_, so every lane
/// observes the one global admission order; a query pins, at its
/// admission point, the per-shard expected version (the count of
/// mutations the router has admitted to that shard) and the COW
/// local→global weight-id maps (ShardMap, grid/shard_map.h), then
/// verifies each shard's response executed at exactly the pinned
/// version. A mismatch means an out-of-band writer or a lost mutation —
/// the shard is marked desynced and excluded from all further coverage
/// rather than risking a wrong merge.
///
/// Failure model. Query RPCs are idempotent: bounded retry with
/// reconnect and backoff inside ShardClient, and a shard that still
/// fails is simply excluded from that query's coverage (degraded, exact
/// over the rest). Mutation RPCs are never retried — a failed mutation
/// is ambiguous (the shard may have applied it before the connection
/// died), so the shard is marked desynced permanently. A weight insert
/// whose round-robin owner is already desynced is acked degraded with
/// empty coverage: nothing was applied, no sequence number is consumed,
/// but the round-robin counter still advances so subsequent inserts
/// rotate to live shards.
class DistRouter {
 public:
  /// `manifest` is the GIRSHD01 header of the envelope the shard servers
  /// were split from (LoadShardedManifest); endpoints.size() must equal
  /// manifest.shard_count, endpoint i serving lane i.
  DistRouter(ShardedManifest manifest, std::vector<ShardEndpoint> endpoints,
             ShardClientOptions client_options);
  ~DistRouter();

  DistRouter(const DistRouter&) = delete;
  DistRouter& operator=(const DistRouter&) = delete;

  /// Connects every shard, validates each against the manifest (dim,
  /// live point count, per-shard live weight count) and records its
  /// boot version. All shards must be reachable at startup — degraded
  /// mode is for failures after a healthy boot, not for booting blind.
  Status Connect();

  /// Stops the lanes and closes the shard connections. Idempotent.
  void Shutdown();

  // ---- Mutations (admission order = lane FIFO order) -------------------

  Status InsertPoint(ConstRow p, DistCoverage* out);
  Status DeletePoint(VectorId live_id, DistCoverage* out);
  Status InsertWeight(ConstRow w, DistCoverage* out);
  Status DeleteWeight(VectorId live_id, DistCoverage* out);
  Status Compact(DistCoverage* out);

  // ---- Queries (fan-out, per-shard version pinning, k-way merge) -------

  Result<ReverseTopKResult> ReverseTopK(ConstRow q, size_t k,
                                        DistCoverage* out);
  /// `initial_cap` seeds the shared global-k-th bound (the front end
  /// forwards kReverseKRanksCapped requests through it; plain kReverseKRanks
  /// uses int64 max). As shard answers arrive, each full top-k answer
  /// tightens the bound for lanes that have not dispatched yet.
  Result<ReverseKRanksResult> ReverseKRanks(
      ConstRow q, size_t k, DistCoverage* out,
      int64_t initial_cap = std::numeric_limits<int64_t>::max());
  Result<std::vector<ReverseTopKResult>> ReverseTopKBatch(
      const Dataset& queries, size_t k, DistCoverage* out);
  Result<std::vector<ReverseKRanksResult>> ReverseKRanksBatch(
      const Dataset& queries, size_t k, DistCoverage* out);

  // ---- Introspection ---------------------------------------------------

  uint32_t shard_count() const { return shard_count_; }
  uint32_t dim() const { return dim_; }
  uint64_t sequence() const;
  uint64_t live_points() const;
  uint64_t live_weights() const;
  /// Bitmap of shards that are connected and not desynced.
  uint64_t live_mask() const;

  /// Plaintext STATS rows: router totals plus per-shard RPC accounting
  /// (RTT histogram, retries, reconnects, breaker state, desync flag).
  std::string RenderStats() const;

 private:
  /// One shard's RPC of a fan-out: runs on shard s's lane, fills the
  /// caller's slot for s and reports the version the shard executed at.
  using ShardRpc = std::function<Status(size_t s, uint64_t* version)>;

  /// REQUIRES seq_mu_ (held by `lk`), the op validated and `needed` (the
  /// shards the op must reach: all for a broadcast, the owner for a weight
  /// op) non-empty among the live shards. Claims the next sequence
  /// number, runs `rpc` on every live needed shard, releases the lock and
  /// waits, then verifies each shard's version — desyncing any that failed
  /// or diverged. The ack is degraded unless every needed shard applied it.
  Status Apply(std::unique_lock<std::mutex> lk, uint64_t needed,
               const ShardRpc& rpc, DistCoverage* out);
  /// REQUIRES seq_mu_. When none of `needed` is live, fills `out` with a
  /// degraded, empty-coverage ack (nothing applied, no sequence consumed)
  /// and returns true.
  bool AckIfUnreachable(uint64_t needed, DistCoverage* out);
  /// Runs `rpc` on every live shard whose breaker admits it, pinned at the
  /// current admitted cut, and waits. Returns the shards whose answers
  /// verify at their pinned version (ascending); `maps` receives the id
  /// maps of that cut. Fills `out`.
  std::vector<uint32_t> FanOutQuery(const ShardRpc& rpc,
                                    std::vector<ShardMap::IdMap>* maps,
                                    DistCoverage* out);

  /// REQUIRES seq_mu_. Marks shard s desynced (permanently excluded).
  void MarkDesyncedLocked(size_t s);
  /// REQUIRES seq_mu_. Bitmap of shards that are not desynced.
  uint64_t LiveMaskLocked() const;
  uint64_t all_shards_mask() const;

  uint32_t shard_count_ = 0;
  uint32_t dim_ = 0;
  std::vector<ShardEndpoint> endpoints_;
  std::vector<std::unique_ptr<ShardClient>> clients_;
  std::unique_ptr<ShardLanes> lanes_;

  /// Admission state, all under seq_mu_ (the seq_mu_ of DESIGN.md §15,
  /// now spanning processes).
  mutable std::mutex seq_mu_;
  uint64_t sequence_ = 0;  ///< Admitted mutations (version stamp).
  uint64_t live_points_ = 0;
  ShardMap map_;
  /// Mutations admitted to each shard = that shard's expected version.
  std::vector<uint64_t> admitted_muts_;
  std::vector<bool> desynced_;

  std::atomic<uint64_t> degraded_queries_{0};
  std::atomic<uint64_t> degraded_mutations_{0};
  std::atomic<uint64_t> desync_events_{0};
};

/// Parses "host:port[,host:port...]" into endpoints.
Result<std::vector<ShardEndpoint>> ParseShardList(const std::string& spec);

}  // namespace gir

#endif  // GIR_DIST_ROUTER_CORE_H_
