#ifndef GIR_GRID_SHARDED_INDEX_H_
#define GIR_GRID_SHARDED_INDEX_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "core/counters.h"
#include "core/dataset.h"
#include "core/query_types.h"
#include "core/shard_lanes.h"
#include "core/status.h"
#include "grid/dynamic_index.h"
#include "grid/shard_map.h"
#include "io/wal.h"

namespace gir {

/// Construction knobs of the sharded router.
struct ShardedIndexOptions {
  /// Number of weight shards (≥ 1). RTK/RKR scan W against P, so W is the
  /// axis the paper's decomposition makes embarrassingly parallel: each
  /// shard owns a disjoint slice of the preference set and a full replica
  /// of the (read-mostly, broadcast-mutated) product set.
  size_t shards = 1;
  /// Options applied to every shard's DynamicGirIndex. Each shard runs on
  /// its own lane thread (core/shard_lanes.h), unpinned.
  DynamicIndexOptions dynamic;
  /// Leveled background merges (DESIGN.md §17). When a shard's churn
  /// crosses dynamic.compact_threshold after a mutation, the router logs
  /// a compaction marker, snapshots the shard's live sets, and rebuilds
  /// them on a dedicated builder thread while the lane keeps serving;
  /// the finished base is installed on the lane's turn with the interim
  /// mutations re-applied. Never blocks a lane or the admission lock.
  /// Build() then disables the shards' own synchronous auto_compact (the
  /// router owns the policy).
  bool background_compact = false;
};

/// Point-in-time view of one shard for STATS / monitoring.
struct ShardStatsSnapshot {
  uint64_t applied_seq = 0;      ///< last op sequence number applied
  uint64_t generation = 0;       ///< shard's DynamicGirIndex generation
  uint64_t queue_depth = 0;      ///< tasks admitted but not yet applied
  uint64_t tasks = 0;            ///< tasks applied in total
  uint64_t queries = 0;          ///< query sub-tasks among them
  uint64_t mutations = 0;        ///< mutation tasks among them
  uint64_t live_weights = 0;     ///< weights this shard currently owns
  uint64_t points_streamed = 0;  ///< scan work: points the engine touched
  uint64_t points_skipped = 0;   ///< scan work: points block-max settled
  uint64_t latency_p50_us = 0;   ///< per-task latency quantiles
  uint64_t latency_p99_us = 0;
  double qps_share = 0.0;        ///< this shard's fraction of all queries
  uint64_t bg_compactions = 0;   ///< background rebuilds installed
};

/// ShardedGirIndex — scale-out router over N weight shards, each wrapping
/// its own DynamicGirIndex (own generation counter, tombstones, τ heads,
/// block-max metadata). Mutations route to the owning shard, queries fan
/// out to every shard, and both kinds of work flow through one per-shard
/// FIFO lane (core/shard_lanes.h) so a query always executes against the
/// exact prefix of the global operation stream it was admitted at —
/// snapshot consistency by construction, with no lock on any shard's
/// index data and no torn reads (each shard's state is only ever touched
/// by the one task that holds its turn).
///
/// Ordering model. Admission (under one router mutex) assigns each
/// operation a global sequence number and enqueues its task(s): weight
/// mutations to the owning shard, point mutations and compactions to all
/// shards, query sub-tasks to all shards. Per-shard FIFO execution means
/// every shard applies exactly the admitted prefix before a query runs,
/// so the fan-out observes one cut of the stream on every shard — the
/// consistent snapshot vector is the admission order itself, and the
/// per-shard applied-sequence atomics are its monotone generation vector.
///
/// Results are bit-identical to a single DynamicGirIndex fed the same
/// operation stream. Weight ids: the router keeps the global live-id
/// order (insertion order filtered to alive — exactly the single-index
/// live order) as a per-shard monotone local→global map (ShardMap,
/// grid/shard_map.h, shared with the distributed router), so mapping a
/// shard's (rank, local_id)-sorted answer preserves the global
/// (rank, weight_id) tie rule, and a k-way merge of per-shard top-k lists
/// truncated to k is the single-index answer (DESIGN.md §15 — note a
/// naive per-shard truncation to k/N would NOT be: one shard may own all
/// k global winners).
///
/// Reverse k-rank fan-outs additionally share an atomic upper bound on
/// the global k-th rank: each shard folds the current bound into its own
/// k-th cap (sound — a subset's k-th order statistic is never smaller
/// than the global one) and publishes its exact local k-th via fetch-min
/// once it has k results, so trailing shards early-abort their
/// unresolved-band scans.
///
/// Thread safety: every public method may be called from any thread
/// concurrently. Callers block until their operation (and for queries,
/// every shard sub-task) completes. shard() is the exception — it
/// exposes raw shard state for persistence/tests and requires external
/// quiescence (no concurrent calls); use Quiesce() first.
class ShardedGirIndex {
 public:
  /// Upper bound on the shard count — a routing-table sanity cap, also
  /// enforced when loading a GIRSHD01 envelope.
  static constexpr size_t kMaxShards = 256;

  /// Builds N shards over round-robin slices of `weights` (weight i →
  /// shard i mod N — the same assignment later inserts continue, so a
  /// rebuilt and a replayed router agree) and a full copy of `points`
  /// per shard.
  static Result<std::unique_ptr<ShardedGirIndex>> Build(
      const Dataset& points, const Dataset& weights,
      const ShardedIndexOptions& options);

  /// Reassembles a router from persisted parts (grid/index_io.h:
  /// GIRSHD01). `owner[g]` is the owning shard of global live weight g in
  /// global live order; shard live-weight counts must match its
  /// histogram, and every shard must agree on the point state.
  static Result<std::unique_ptr<ShardedGirIndex>> FromParts(
      ShardedIndexOptions options,
      std::vector<std::unique_ptr<DynamicGirIndex>> shards,
      std::vector<uint32_t> owner, uint64_t sequence,
      uint64_t weight_insert_counter);

  ~ShardedGirIndex();

  ShardedGirIndex(const ShardedGirIndex&) = delete;
  ShardedGirIndex& operator=(const ShardedGirIndex&) = delete;

  // ---- Mutations (validated at admission; routed or broadcast) ---------

  /// Appends a product vector to every shard. `seq_out` (nullable)
  /// receives the op's global sequence number. `band_out` (nullable)
  /// receives the result-cache invalidation band: the minimum over every
  /// shard of DynamicGirIndex::last_point_band() for this mutation —
  /// read on each shard's lane turn, so it belongs to exactly this
  /// operation even under concurrent mutators (DESIGN.md §16).
  Status InsertPoint(ConstRow p, uint64_t* seq_out = nullptr,
                     uint32_t* band_out = nullptr);
  /// Tombstones a point (by global live id) on every shard. `band_out`
  /// as for InsertPoint.
  Status DeletePoint(VectorId live_id, uint64_t* seq_out = nullptr,
                     uint32_t* band_out = nullptr);
  /// Appends a preference vector to the round-robin next shard.
  /// `head_out` (nullable) receives the owning shard's
  /// DynamicGirIndex::last_weight_head() snapshot for this weight (empty
  /// = unknown, callers must assume the new weight can affect any cached
  /// answer).
  Status InsertWeight(ConstRow w, uint64_t* seq_out = nullptr,
                      std::vector<double>* head_out = nullptr);
  /// Tombstones the weight with global live id `live_id` on its owner.
  Status DeleteWeight(VectorId live_id, uint64_t* seq_out = nullptr);
  /// Compacts every shard (each folds its own tombstones/deltas).
  Status Compact(uint64_t* seq_out = nullptr);

  // ---- Queries (fan-out + merge; bit-identical to single-index) --------

  ReverseTopKResult ReverseTopK(ConstRow q, size_t k,
                                QueryStats* stats = nullptr,
                                uint64_t* executed_seq = nullptr) const;
  ReverseKRanksResult ReverseKRanks(ConstRow q, size_t k,
                                    QueryStats* stats = nullptr,
                                    uint64_t* executed_seq = nullptr) const;
  /// ReverseKRanks whose shared k-th bound starts at `initial_cap`
  /// instead of unbounded — the distributed router's fan-out primitive
  /// (the per-request cap of NetVerb::kReverseKRanksCapped). Sound and
  /// bit-identical to ReverseKRanks whenever initial_cap >= the true
  /// global k-th rank; a subset's k-th rank always satisfies that.
  ReverseKRanksResult ReverseKRanksCapped(
      ConstRow q, size_t k, int64_t initial_cap, QueryStats* stats = nullptr,
      uint64_t* executed_seq = nullptr) const;
  /// Batch forms: one fan-out for the whole block, per-shard batch
  /// engines (which amortize scan sweeps across queries), merged per
  /// query. The batch RKR path does not use the shared k-th bound — the
  /// bound is per query, and trading the batched sweep for per-query
  /// abort loses more than the bound saves (DESIGN.md §15).
  std::vector<ReverseTopKResult> ReverseTopKBatch(
      const Dataset& queries, size_t k, QueryStats* stats = nullptr,
      uint64_t* executed_seq = nullptr) const;
  std::vector<ReverseKRanksResult> ReverseKRanksBatch(
      const Dataset& queries, size_t k, QueryStats* stats = nullptr,
      uint64_t* executed_seq = nullptr) const;

  // ---- Durability: write-ahead log + checkpoint (DESIGN.md §17) --------

  /// Replays recovered WAL records on top of the current state. Records
  /// at or below sequence() (already contained in the loaded snapshot)
  /// are skipped; the rest must form the contiguous admitted suffix — a
  /// sequence gap, or an op the router rejects at admission, means the
  /// log and the snapshot disagree and is Status::Corruption. Must run
  /// before AttachWal: replayed ops are not re-logged. Background
  /// compaction markers replay as synchronous shard compactions, which
  /// is state-equivalent to the live install path, generation counters
  /// included.
  Status ReplayWal(const std::vector<WalRecord>& records);

  /// Attaches the write-ahead log. Every subsequently admitted mutation
  /// is appended — and per the log's fsync policy made durable — under
  /// the admission lock *before* any shard applies it; a failed append
  /// rejects the mutation with nothing applied and no sequence number
  /// consumed. The log's shard count must match shard_count().
  Status AttachWal(std::unique_ptr<ShardedWal> wal);
  /// The attached log; null when running without durability.
  const ShardedWal* wal() const { return wal_.get(); }

  /// Checkpoint: drains background compactions, pauses mutation
  /// admission (queries keep flowing), quiesces the lanes, runs
  /// `save_snapshot` — the caller persists the GIRSHD01 snapshot, e.g.
  /// via SaveShardedIndex — and on success rotates the WAL to the
  /// snapshot's sequence. A crash between the save and the rotation is
  /// safe: recovery skips records the snapshot already contains.
  Status Checkpoint(const std::function<Status()>& save_snapshot);

  /// Blocks until no background compaction is marked, building, or
  /// awaiting install. Orderly shutdown and deterministic tests use it.
  void WaitBackgroundIdle() const;

  // ---- Introspection ---------------------------------------------------

  size_t dim() const { return dim_; }
  size_t shard_count() const { return shards_.size(); }
  size_t live_point_count() const;
  size_t live_weight_count() const;
  /// Last admitted operation sequence number.
  uint64_t sequence() const;
  /// Round-robin insert cursor (persisted so replay stays deterministic).
  uint64_t weight_insert_counter() const;
  /// True iff any shard holds tombstones or delta rows.
  bool dirty() const;
  /// The monotone per-shard generation vector: entry s is the sequence
  /// number of the last operation shard s has applied.
  std::vector<uint64_t> AppliedSeqVector() const;
  /// Owning shard of every global live weight, in global live order.
  std::vector<uint32_t> WeightOwners() const;
  /// Per-shard monitoring snapshot (see ShardStatsSnapshot).
  std::vector<ShardStatsSnapshot> ShardStats() const;

  /// Blocks until every admitted operation has been applied on every
  /// shard. Afterwards (absent concurrent mutations) shard() is safe.
  void Quiesce() const;

  /// Raw shard access for persistence and tests; requires quiescence.
  const DynamicGirIndex& shard(size_t s) const { return *shards_[s]; }

  const ShardedIndexOptions& options() const { return options_; }

 private:
  struct ShardCounters;
  struct BgShard;
  struct BgJob;
  /// A shard-level mutation. It owns its arguments, so a lane can buffer
  /// it and re-apply it to a rebuilt base (background compaction).
  using ShardOp = std::function<Status(DynamicGirIndex&)>;
  /// One shard's part of a query fan-out; writes its answer into the
  /// caller's frame.
  using ShardQuery =
      std::function<void(size_t, const DynamicGirIndex&, QueryStats*)>;

  ShardedGirIndex(ShardedIndexOptions options, size_t dim,
                  std::vector<std::unique_ptr<DynamicGirIndex>> shards,
                  std::vector<uint32_t> owner, uint64_t sequence,
                  uint64_t weight_insert_counter);

  /// Takes the admission lock once mutations are not paused.
  std::unique_lock<std::mutex> LockForMutation();
  /// REQUIRES seq_mu_. Logs the op about to be admitted (sequence
  /// seq_ + 1) to `lane`'s file, or to every lane's when unset. A no-op
  /// without an attached log.
  Status LogLocked(WalOp op, std::optional<uint32_t> lane, ConstRow row = {},
                   uint64_t id = 0);
  /// Admits one mutation under `lk` (seq_mu_, bookkeeping done): stamps
  /// the next sequence number, applies `op` on each of `lanes`, releases
  /// the lock and waits. Returns the first failing lane's status.
  /// `band_out` receives the minimum point band over the lanes, `head_out`
  /// the (single) lane's inserted-weight head.
  Status Apply(std::unique_lock<std::mutex> lk,
               const std::vector<uint32_t>& lanes, ShardOp op,
               uint64_t* seq_out, uint32_t* band_out = nullptr,
               std::vector<double>* head_out = nullptr);
  /// Shard s's lane turn of a mutation admitted at `seq`.
  Status ApplyOnLane(size_t s, uint64_t seq, const ShardOp& op);
  /// Runs `query` on every shard at the current admitted prefix and waits;
  /// returns the id maps pinned at admission.
  std::vector<ShardMap::IdMap> FanOut(const ShardQuery& query,
                                      QueryStats* stats,
                                      uint64_t* executed_seq) const;

  /// Replay of a background-compaction marker: a synchronous Compact()
  /// on one shard, admitted at its own sequence number like any op.
  Status CompactShard(uint32_t shard, uint64_t* seq_out);
  /// Called on shard s's lane turn after a mutation applied: admits (and
  /// WAL-logs) a background-compaction marker when churn crosses the
  /// threshold. Non-blocking — try-locks the admission mutex and gives
  /// up rather than stall the lane; the next mutation re-checks.
  void MaybeRequestBackgroundCompact(size_t s);
  /// The marker's lane turn: snapshot the live sets, start buffering
  /// interim mutations, hand the rebuild to the builder.
  void RunBgBegin(size_t s);
  /// The install's lane turn: stamp the rebuilt index with the marker
  /// generation, re-apply the buffered mutations, swap it in.
  void RunBgInstall(BgJob& job);
  void BuilderMain();

  ShardedIndexOptions options_;
  size_t dim_;
  std::vector<std::unique_ptr<DynamicGirIndex>> shards_;
  /// 0..N-1: every shard answers every query.
  std::vector<uint32_t> all_shards_;

  /// Router bookkeeping, all under seq_mu_: the admission lock is the
  /// only cross-shard serialization point.
  mutable std::mutex seq_mu_;
  uint64_t seq_ = 0;
  size_t live_points_ = 0;
  ShardMap map_;

  /// Attached under seq_mu_ once at startup; appends happen inside the
  /// admission critical sections, so they are serialized by seq_mu_.
  std::unique_ptr<ShardedWal> wal_;
  /// Admission-side durability flags, all under seq_mu_. `paused_` gates
  /// mutation admission during a checkpoint's snapshot+rotate window;
  /// `checkpointing_` additionally suppresses new background markers
  /// while the checkpoint drains the old ones; `replaying_` marks WAL
  /// replay (markers come from the log, not from churn triggers).
  bool paused_ = false;
  bool checkpointing_ = false;
  bool replaying_ = false;
  mutable std::condition_variable pause_cv_;

  /// Background-compaction machinery. bg_[s] holds the per-shard marker
  /// state (pending flag under bg_mu_; the op buffer is touched only by
  /// shard s's lane). The builder thread rebuilds snapshots off the lanes
  /// and admits install turns.
  std::vector<std::unique_ptr<BgShard>> bg_;
  mutable std::mutex bg_mu_;
  mutable std::condition_variable bg_cv_;
  std::deque<std::shared_ptr<BgJob>> bg_queue_;
  size_t bg_inflight_ = 0;
  bool bg_stopping_ = false;
  std::thread builder_;

  std::vector<std::unique_ptr<ShardCounters>> counters_;
  /// Declared last: destroyed first, so the lanes drain and join while
  /// every structure their tasks touch is still alive.
  std::unique_ptr<ShardLanes> lanes_;
};

}  // namespace gir

#endif  // GIR_GRID_SHARDED_INDEX_H_
