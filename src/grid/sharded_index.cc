#include "grid/sharded_index.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <utility>

#include "core/histogram.h"

namespace gir {

namespace {

constexpr size_t kMaxShards = ShardedGirIndex::kMaxShards;

using Clock = std::chrono::steady_clock;

uint64_t MicrosSince(Clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - t0)
          .count());
}

Status CompactOp(DynamicGirIndex& index) { return index.Compact(); }

}  // namespace

// ---- Internal structures -------------------------------------------------

/// Monitoring counters, written by shard s's lane (one task at a time)
/// and read by anyone. Relaxed atomics: observational only, except
/// applied_seq whose release store pairs with AppliedSeqVector()'s
/// acquire loads.
struct ShardedGirIndex::ShardCounters {
  std::atomic<uint64_t> applied_seq{0};
  std::atomic<uint64_t> tasks{0};
  std::atomic<uint64_t> queries{0};
  std::atomic<uint64_t> mutations{0};
  std::atomic<uint64_t> points_streamed{0};
  std::atomic<uint64_t> points_skipped{0};
  std::atomic<uint64_t> generation{0};
  std::atomic<uint64_t> live_weights{0};
  std::atomic<bool> dirty{false};
  std::atomic<uint64_t> bg_compactions{0};
  Pow2Histogram latency_us;
};

/// Per-shard background-compaction state. `pending` (marker admitted,
/// install not yet done — suppresses a second marker) is guarded by
/// bg_mu_; everything else is touched only by shard s's lane, which runs
/// one task at a time, so it needs no lock.
struct ShardedGirIndex::BgShard {
  struct BufferedOp {
    ShardOp op;
    bool ok = true;  ///< the outcome the op had on the old base
  };

  bool pending = false;
  /// Set on the marker's lane turn, cleared on the install turn: every
  /// mutation the lane applies in between is kept here and re-applied
  /// to the rebuilt base before it is swapped in.
  bool buffering = false;
  uint64_t target_generation = 0;
  std::vector<BufferedOp> ops;
};

/// One rebuild: the marker-time live sets and the generation a
/// synchronous Compact() at the marker would have produced (what WAL
/// replay runs, so live and recovered states agree). The builder fills
/// `built` (left null when the rebuild fails: the install turn then just
/// drops the marker state and the shard keeps its old base) and hands the
/// job to the shard's lane.
struct ShardedGirIndex::BgJob {
  size_t shard = 0;
  Dataset points{0};
  Dataset weights{0};
  DynamicIndexOptions options;
  uint64_t target_generation = 0;
  std::unique_ptr<DynamicGirIndex> built;
};

// ---- Construction --------------------------------------------------------

ShardedGirIndex::ShardedGirIndex(
    ShardedIndexOptions options, size_t dim,
    std::vector<std::unique_ptr<DynamicGirIndex>> shards,
    std::vector<uint32_t> owner, uint64_t sequence,
    uint64_t weight_insert_counter)
    : options_(std::move(options)),
      dim_(dim),
      shards_(std::move(shards)),
      seq_(sequence),
      live_points_(shards_[0]->live_point_count()),
      map_(shards_.size(), std::move(owner), weight_insert_counter) {
  for (size_t s = 0; s < shards_.size(); ++s) {
    all_shards_.push_back(static_cast<uint32_t>(s));
    bg_.push_back(std::make_unique<BgShard>());
    auto c = std::make_unique<ShardCounters>();
    c->applied_seq.store(sequence, std::memory_order_release);
    c->generation.store(shards_[s]->generation(), std::memory_order_relaxed);
    c->live_weights.store(shards_[s]->live_weight_count(),
                          std::memory_order_relaxed);
    c->dirty.store(shards_[s]->dirty(), std::memory_order_relaxed);
    counters_.push_back(std::move(c));
  }
  lanes_ = std::make_unique<ShardLanes>(shards_.size());
  if (options_.background_compact) {
    builder_ = std::thread([this] { BuilderMain(); });
  }
}

ShardedGirIndex::~ShardedGirIndex() {
  if (builder_.joinable()) {
    // Drain markers/builds/installs while the lanes are still serving,
    // then stop the (now idle) builder. The lanes, destroyed first among
    // the members, then run what is left and join.
    WaitBackgroundIdle();
    {
      std::lock_guard<std::mutex> lk(bg_mu_);
      bg_stopping_ = true;
      bg_cv_.notify_all();
    }
    builder_.join();
  }
}

Result<std::unique_ptr<ShardedGirIndex>> ShardedGirIndex::Build(
    const Dataset& points, const Dataset& weights,
    const ShardedIndexOptions& options) {
  if (options.shards == 0 || options.shards > kMaxShards) {
    return Status::InvalidArgument("shard count out of range");
  }
  if (points.dim() != weights.dim()) {
    return Status::InvalidArgument("points and weights disagree on dim");
  }
  const size_t n = options.shards;
  DynamicIndexOptions dyn = options.dynamic;
  // With background merges on, the router owns the compaction policy;
  // the shards' own synchronous trigger would block the lane.
  if (options.background_compact) dyn.auto_compact = false;
  std::vector<uint32_t> owner = ShardMap::RoundRobin(n, weights.size());
  std::vector<Dataset> slices(n, Dataset(weights.dim()));
  for (size_t i = 0; i < weights.size(); ++i) {
    slices[owner[i]].AppendUnchecked(weights.row(i));
  }
  std::vector<std::unique_ptr<DynamicGirIndex>> shards;
  shards.reserve(n);
  for (const Dataset& slice : slices) {
    auto built = DynamicGirIndex::Build(points, slice, dyn);
    if (!built.ok()) return built.status();
    shards.push_back(
        std::make_unique<DynamicGirIndex>(std::move(built).value()));
  }
  return std::unique_ptr<ShardedGirIndex>(new ShardedGirIndex(
      options, points.dim(), std::move(shards), std::move(owner),
      /*sequence=*/0, /*weight_insert_counter=*/weights.size()));
}

Result<std::unique_ptr<ShardedGirIndex>> ShardedGirIndex::FromParts(
    ShardedIndexOptions options,
    std::vector<std::unique_ptr<DynamicGirIndex>> shards,
    std::vector<uint32_t> owner, uint64_t sequence,
    uint64_t weight_insert_counter) {
  const size_t n = shards.size();
  if (n == 0 || n > kMaxShards || n != options.shards) {
    return Status::InvalidArgument("shard count out of range");
  }
  const size_t dim = shards[0]->dim();
  const size_t live_points = shards[0]->live_point_count();
  if (weight_insert_counter < owner.size()) {
    return Status::InvalidArgument(
        "weight insert counter below the live count");
  }
  std::vector<size_t> per_shard(n, 0);
  for (uint32_t s : owner) {
    if (s >= n) {
      return Status::InvalidArgument("weight owner out of range");
    }
    ++per_shard[s];
  }
  for (size_t s = 0; s < n; ++s) {
    if (shards[s]->dim() != dim) {
      return Status::InvalidArgument("shards disagree on dim");
    }
    if (shards[s]->live_point_count() != live_points) {
      return Status::InvalidArgument("shards disagree on the point state");
    }
    if (shards[s]->live_weight_count() != per_shard[s]) {
      return Status::InvalidArgument(
          "shard weight count does not match the owner map");
    }
  }
  return std::unique_ptr<ShardedGirIndex>(new ShardedGirIndex(
      std::move(options), dim, std::move(shards), std::move(owner), sequence,
      weight_insert_counter));
}

// ---- Admission and lane execution ----------------------------------------

std::unique_lock<std::mutex> ShardedGirIndex::LockForMutation() {
  std::unique_lock<std::mutex> lk(seq_mu_);
  pause_cv_.wait(lk, [&] { return !paused_; });
  return lk;
}

Status ShardedGirIndex::LogLocked(WalOp op, std::optional<uint32_t> lane,
                                  ConstRow row, uint64_t id) {
  if (wal_ == nullptr) return Status::OK();
  WalRecord rec;
  rec.seq = seq_ + 1;
  rec.op = op;
  rec.row.assign(row.begin(), row.end());
  rec.id = id;
  if (!lane) return wal_->AppendAll(rec);
  rec.shard = *lane;  // carried on disk by shard-compact markers only
  return wal_->Append(*lane, rec);
}

Status ShardedGirIndex::Apply(std::unique_lock<std::mutex> lk,
                              const std::vector<uint32_t>& lanes, ShardOp op,
                              uint64_t* seq_out, uint32_t* band_out,
                              std::vector<double>* head_out) {
  const uint64_t seq = ++seq_;
  std::vector<Status> statuses(shards_.size());
  std::vector<uint32_t> bands(shards_.size(),
                              std::numeric_limits<uint32_t>::max());
  lanes_->FanOut(
      lanes,
      [&](size_t s) {
        statuses[s] = ApplyOnLane(s, seq, op);
        // Cache probes, read on this lane turn so they belong to exactly
        // this operation even under concurrent mutators.
        if (band_out != nullptr) bands[s] = shards_[s]->last_point_band();
        if (head_out != nullptr) *head_out = shards_[s]->last_weight_head();
      },
      lk);
  if (seq_out != nullptr) *seq_out = seq;
  if (band_out != nullptr) {
    *band_out = *std::min_element(bands.begin(), bands.end());
  }
  for (const Status& st : statuses) {
    if (!st.ok()) return st;
  }
  return Status::OK();
}

Status ShardedGirIndex::ApplyOnLane(size_t s, uint64_t seq,
                                    const ShardOp& op) {
  const Clock::time_point t0 = Clock::now();
  const Status st = op(*shards_[s]);
  if (options_.background_compact) {
    BgShard& bg = *bg_[s];
    // A rebuild of this shard is in flight: keep the op so the install
    // turn can re-apply it to the fresh base.
    if (bg.buffering) bg.ops.push_back({op, st.ok()});
    MaybeRequestBackgroundCompact(s);
  }
  const DynamicGirIndex& index = *shards_[s];
  ShardCounters& c = *counters_[s];
  c.latency_us.Record(MicrosSince(t0));
  c.tasks.fetch_add(1, std::memory_order_relaxed);
  c.mutations.fetch_add(1, std::memory_order_relaxed);
  c.generation.store(index.generation(), std::memory_order_relaxed);
  c.live_weights.store(index.live_weight_count(), std::memory_order_relaxed);
  c.dirty.store(index.dirty(), std::memory_order_relaxed);
  c.applied_seq.store(seq, std::memory_order_release);
  return st;
}

std::vector<ShardMap::IdMap> ShardedGirIndex::FanOut(
    const ShardQuery& query, QueryStats* stats,
    uint64_t* executed_seq) const {
  std::vector<QueryStats> part_stats(shards_.size());
  std::unique_lock<std::mutex> lk(seq_mu_);
  // Queries run at the current admitted prefix, against the id maps of
  // that same cut.
  std::vector<ShardMap::IdMap> maps = map_.Pin();
  const uint64_t seq = seq_;
  lanes_->FanOut(
      all_shards_,
      [&](size_t s) {
        const Clock::time_point t0 = Clock::now();
        QueryStats& qs = part_stats[s];
        query(s, *shards_[s], &qs);
        ShardCounters& c = *counters_[s];
        c.points_streamed.fetch_add(qs.points_streamed,
                                    std::memory_order_relaxed);
        c.points_skipped.fetch_add(qs.points_skipped,
                                   std::memory_order_relaxed);
        c.latency_us.Record(MicrosSince(t0));
        c.tasks.fetch_add(1, std::memory_order_relaxed);
        c.queries.fetch_add(1, std::memory_order_relaxed);
        c.applied_seq.store(seq, std::memory_order_release);
      },
      lk);
  if (stats != nullptr) {
    for (const QueryStats& qs : part_stats) *stats += qs;
  }
  if (executed_seq != nullptr) *executed_seq = seq;
  return maps;
}

// ---- Background compaction (leveled merges; DESIGN.md §17) ---------------

void ShardedGirIndex::MaybeRequestBackgroundCompact(size_t s) {
  DynamicGirIndex& index = *shards_[s];
  // The trigger mirrors DynamicGirIndex::MaybeAutoCompact exactly, just
  // evaluated by the router instead of inside the shard.
  if (!index.dirty() || index.live_point_count() == 0) return;
  if (index.ChurnFraction() <= options_.dynamic.compact_threshold) return;
  {
    std::lock_guard<std::mutex> blk(bg_mu_);
    if (bg_[s]->pending) return;  // one rebuild per shard at a time
  }
  // Never stall the lane on the admission lock: if it is contended (an
  // admission, a checkpoint), skip — the next mutation re-checks.
  std::unique_lock<std::mutex> lk(seq_mu_, std::try_to_lock);
  if (!lk.owns_lock()) return;
  if (paused_ || checkpointing_ || replaying_) return;
  // Durability first: the marker must be on disk before the compaction
  // is admitted, like any other mutation. Replay runs a synchronous
  // shard compaction at exactly this sequence number, which lands on
  // the same state the install path produces.
  if (!LogLocked(WalOp::kCompactShard, static_cast<uint32_t>(s)).ok()) {
    return;
  }
  const uint64_t seq = ++seq_;
  {
    std::lock_guard<std::mutex> blk(bg_mu_);
    bg_[s]->pending = true;
    ++bg_inflight_;
  }
  lanes_->Post(s, [this, s, seq] {
    RunBgBegin(s);
    counters_[s]->applied_seq.store(seq, std::memory_order_release);
  });
}

void ShardedGirIndex::RunBgBegin(size_t s) {
  DynamicGirIndex& index = *shards_[s];
  BgShard& bg = *bg_[s];
  // Lane FIFO puts this turn at exactly the marker's admitted prefix.
  // The abort conditions mirror Compact()'s no-op conditions, so a
  // replayed marker (a synchronous Compact) is the same no-op.
  if (!index.dirty() || index.live_point_count() == 0) {
    std::lock_guard<std::mutex> lk(bg_mu_);
    bg.pending = false;
    --bg_inflight_;
    bg_cv_.notify_all();
    return;
  }
  bg.buffering = true;
  bg.target_generation = index.generation() + 1;
  bg.ops.clear();
  auto job = std::make_shared<BgJob>();
  job->shard = s;
  job->points = index.LivePoints();
  job->weights = index.LiveWeights();
  job->options = index.options();
  job->target_generation = bg.target_generation;
  std::lock_guard<std::mutex> lk(bg_mu_);
  bg_queue_.push_back(std::move(job));
  bg_cv_.notify_all();
}

void ShardedGirIndex::BuilderMain() {
  for (;;) {
    std::shared_ptr<BgJob> job;
    {
      std::unique_lock<std::mutex> lk(bg_mu_);
      bg_cv_.wait(lk, [&] { return !bg_queue_.empty() || bg_stopping_; });
      if (bg_queue_.empty()) return;  // stopping and drained
      job = std::move(bg_queue_.front());
      bg_queue_.pop_front();
    }
    // The expensive part, off every lane: a full rebuild over the
    // marker-time live sets — the same rebuild Compact() runs inline.
    auto built =
        DynamicGirIndex::Build(job->points, job->weights, job->options);
    if (built.ok()) {
      job->built = std::make_unique<DynamicGirIndex>(std::move(built).value());
    }
    job->points = Dataset(0);  // the snapshot is spent; free it now
    job->weights = Dataset(0);
    std::lock_guard<std::mutex> lk(seq_mu_);
    const uint64_t seq = seq_;
    lanes_->Post(job->shard, [this, job, seq] {
      RunBgInstall(*job);
      counters_[job->shard]->applied_seq.store(seq, std::memory_order_release);
    });
  }
}

void ShardedGirIndex::RunBgInstall(BgJob& job) {
  const size_t s = job.shard;
  BgShard& bg = *bg_[s];
  std::unique_ptr<DynamicGirIndex> built = std::move(job.built);
  bool install = built != nullptr;
  if (install) {
    // The fresh base equals a synchronous Compact() at the marker except
    // for the generation counter, which Build reset to zero; stamp it.
    built->OverrideGeneration(bg.target_generation);
    // Re-apply everything this lane absorbed while the build ran. Local
    // ids stay valid: the new base indexes the marker-time live order —
    // the same order the old shard had — and both evolve identically.
    // Each op must reproduce the outcome it had on the old base (an
    // explicit compact refuses on both when no point is live); any other
    // outcome means the two diverged, so keep the old shard rather than
    // install doubt.
    for (const BgShard::BufferedOp& buffered : bg.ops) {
      if (buffered.op(*built).ok() != buffered.ok) {
        install = false;
        break;
      }
    }
  }
  if (install) {
    shards_[s] = std::move(built);
    ShardCounters& c = *counters_[s];
    c.generation.store(shards_[s]->generation(), std::memory_order_relaxed);
    c.live_weights.store(shards_[s]->live_weight_count(),
                         std::memory_order_relaxed);
    c.dirty.store(shards_[s]->dirty(), std::memory_order_relaxed);
    c.bg_compactions.fetch_add(1, std::memory_order_relaxed);
  }
  bg.buffering = false;
  bg.ops.clear();
  bg.ops.shrink_to_fit();
  std::lock_guard<std::mutex> lk(bg_mu_);
  bg.pending = false;
  --bg_inflight_;
  bg_cv_.notify_all();
}

void ShardedGirIndex::WaitBackgroundIdle() const {
  std::unique_lock<std::mutex> lk(bg_mu_);
  bg_cv_.wait(lk, [&] { return bg_inflight_ == 0; });
}

// ---- Mutations -----------------------------------------------------------

// Admission-time validation mirrors the shards' own checks exactly, so a
// lane can only fail after the router committed its bookkeeping if the
// index itself is inconsistent.

Status ShardedGirIndex::InsertPoint(ConstRow p, uint64_t* seq_out,
                                    uint32_t* band_out) {
  if (p.size() != dim_) {
    return Status::InvalidArgument(
        "row width " + std::to_string(p.size()) + " != dataset dim " +
        std::to_string(dim_));
  }
  if (!RowValuesValid(p)) {
    return Status::InvalidArgument(
        "dataset values must be finite and non-negative");
  }
  std::vector<double> row(p.begin(), p.end());
  std::unique_lock<std::mutex> lk = LockForMutation();
  Status st = LogLocked(WalOp::kInsertPoint, {}, p);
  if (!st.ok()) return st;
  ++live_points_;
  return Apply(
      std::move(lk), all_shards_,
      [row = std::move(row)](DynamicGirIndex& index) {
        return index.InsertPoint(row);
      },
      seq_out, band_out);
}

Status ShardedGirIndex::DeletePoint(VectorId live_id, uint64_t* seq_out,
                                    uint32_t* band_out) {
  std::unique_lock<std::mutex> lk = LockForMutation();
  if (live_id >= live_points_) {
    return Status::InvalidArgument("point live id out of range");
  }
  Status st = LogLocked(WalOp::kDeletePoint, {}, {}, live_id);
  if (!st.ok()) return st;
  --live_points_;
  return Apply(
      std::move(lk), all_shards_,
      [live_id](DynamicGirIndex& index) { return index.DeletePoint(live_id); },
      seq_out, band_out);
}

Status ShardedGirIndex::InsertWeight(ConstRow w, uint64_t* seq_out,
                                     std::vector<double>* head_out) {
  if (w.size() != dim_) {
    return Status::InvalidArgument("weight width does not match dim");
  }
  Status vst = ValidateWeight(w, 1e-6);
  if (!vst.ok()) return vst;
  std::vector<double> row(w.begin(), w.end());
  std::unique_lock<std::mutex> lk = LockForMutation();
  // Weight mutations land only in the owner lane's file: each lane's log
  // alone carries everything its shard needs.
  const uint32_t s = map_.next_owner();
  Status st = LogLocked(WalOp::kInsertWeight, s, w);
  if (!st.ok()) return st;
  map_.AddWeight();
  return Apply(
      std::move(lk), {s},
      [row = std::move(row)](DynamicGirIndex& index) {
        return index.InsertWeight(row);
      },
      seq_out, nullptr, head_out);
}

Status ShardedGirIndex::DeleteWeight(VectorId live_id, uint64_t* seq_out) {
  std::unique_lock<std::mutex> lk = LockForMutation();
  if (live_id >= map_.live_weights()) {
    return Status::InvalidArgument("weight live id out of range");
  }
  const uint32_t s = map_.owner_of(live_id);
  // Logged with the *global* live id: replay re-routes through this
  // method and recomputes the local id from its own map.
  Status st = LogLocked(WalOp::kDeleteWeight, s, {}, live_id);
  if (!st.ok()) return st;
  const VectorId local = map_.LocalId(live_id);
  map_.RemoveWeight(live_id);
  return Apply(
      std::move(lk), {s},
      [local](DynamicGirIndex& index) { return index.DeleteWeight(local); },
      seq_out);
}

Status ShardedGirIndex::Compact(uint64_t* seq_out) {
  std::unique_lock<std::mutex> lk = LockForMutation();
  Status st = LogLocked(WalOp::kCompact, {});
  if (!st.ok()) return st;
  return Apply(std::move(lk), all_shards_, CompactOp, seq_out);
}

Status ShardedGirIndex::CompactShard(uint32_t shard, uint64_t* seq_out) {
  if (shard >= shards_.size()) {
    return Status::InvalidArgument("shard index out of range");
  }
  // A clean shard compacts as a no-op (OK, no generation bump) and a
  // shard with no live points refuses unchanged — exactly the cases
  // where the live marker aborted its rebuild, so neither fails replay.
  (void)Apply(LockForMutation(), {shard}, CompactOp, seq_out);
  return Status::OK();
}

// ---- Durability: replay, attach, checkpoint ------------------------------

Status ShardedGirIndex::ReplayWal(const std::vector<WalRecord>& records) {
  {
    std::lock_guard<std::mutex> lk(seq_mu_);
    if (wal_ != nullptr) {
      return Status::InvalidArgument("ReplayWal must run before AttachWal");
    }
    replaying_ = true;
  }
  Status st = Status::OK();
  const uint64_t base = sequence();
  uint64_t expected = base + 1;
  for (const WalRecord& r : records) {
    if (r.seq <= base) continue;  // already folded into the snapshot
    if (r.seq != expected) {
      st = Status::Corruption("wal sequence gap: expected " +
                              std::to_string(expected) + ", found " +
                              std::to_string(r.seq));
      break;
    }
    // Replayed ops route through the public mutation methods — the same
    // admission bookkeeping, shard routing, and lane application as the
    // original execution, minus the (unattached) WAL.
    uint64_t seq_done = 0;
    Status op_st;
    switch (r.op) {
      case WalOp::kInsertPoint:
        op_st = InsertPoint(ConstRow(r.row.data(), r.row.size()), &seq_done);
        break;
      case WalOp::kDeletePoint:
        op_st = DeletePoint(static_cast<VectorId>(r.id), &seq_done);
        break;
      case WalOp::kInsertWeight:
        op_st = InsertWeight(ConstRow(r.row.data(), r.row.size()), &seq_done);
        break;
      case WalOp::kDeleteWeight:
        op_st = DeleteWeight(static_cast<VectorId>(r.id), &seq_done);
        break;
      case WalOp::kCompact:
        op_st = Compact(&seq_done);
        break;
      case WalOp::kCompactShard:
        op_st = CompactShard(r.shard, &seq_done);
        break;
    }
    if (seq_done != r.seq) {
      // Rejected at admission: a healthy log replays cleanly on top of
      // its snapshot, so the two disagree.
      st = Status::Corruption(
          "wal replay rejected op at seq " + std::to_string(r.seq) + ": " +
          (op_st.ok() ? std::string("sequence mismatch") : op_st.message()));
      break;
    }
    // Op-level failures past admission (an explicit Compact with no live
    // points) consumed their sequence number on the live path too — the
    // state advanced identically, so replay continues through them.
    expected = r.seq + 1;
  }
  {
    std::lock_guard<std::mutex> lk(seq_mu_);
    replaying_ = false;
  }
  return st;
}

Status ShardedGirIndex::AttachWal(std::unique_ptr<ShardedWal> wal) {
  if (wal == nullptr) {
    return Status::InvalidArgument("AttachWal requires a log");
  }
  if (wal->shard_count() != shards_.size()) {
    return Status::InvalidArgument(
        "wal shard count " + std::to_string(wal->shard_count()) +
        " does not match index shard count " +
        std::to_string(shards_.size()));
  }
  std::lock_guard<std::mutex> lk(seq_mu_);
  if (wal_ != nullptr) {
    return Status::InvalidArgument("a wal is already attached");
  }
  wal_ = std::move(wal);
  return Status::OK();
}

Status ShardedGirIndex::Checkpoint(
    const std::function<Status()>& save_snapshot) {
  {
    std::unique_lock<std::mutex> lk(seq_mu_);
    pause_cv_.wait(lk, [&] { return !paused_ && !checkpointing_; });
    checkpointing_ = true;  // no new background markers from here on
  }
  // Drain in-flight background compactions first: a snapshot bracketing
  // a pending marker would drop the marker at rotation yet still see its
  // install land afterwards, and a later crash would then recover to a
  // different generation than the live process reached.
  WaitBackgroundIdle();
  uint64_t snapshot_seq = 0;
  {
    std::lock_guard<std::mutex> lk(seq_mu_);
    paused_ = true;  // mutations admitted before this drain via Quiesce
    snapshot_seq = seq_;
  }
  Quiesce();
  // Queries keep being admitted and answered throughout the save: they
  // only read shard state, which nothing mutates while paused.
  Status st = save_snapshot();
  if (st.ok() && wal_ != nullptr) st = wal_->Rotate(snapshot_seq);
  {
    std::lock_guard<std::mutex> lk(seq_mu_);
    paused_ = false;
    checkpointing_ = false;
  }
  pause_cv_.notify_all();
  return st;
}

// ---- Queries -------------------------------------------------------------

ReverseTopKResult ShardedGirIndex::ReverseTopK(ConstRow q, size_t k,
                                               QueryStats* stats,
                                               uint64_t* executed_seq) const {
  std::vector<ReverseTopKResult> parts(shards_.size());
  const auto maps = FanOut(
      [&](size_t s, const DynamicGirIndex& index, QueryStats* qs) {
        parts[s] = index.ReverseTopK(q, k, qs);
      },
      stats, executed_seq);
  return MergeShards(parts, maps, all_shards_, k);
}

ReverseKRanksResult ShardedGirIndex::ReverseKRanks(
    ConstRow q, size_t k, QueryStats* stats, uint64_t* executed_seq) const {
  return ReverseKRanksCapped(q, k, std::numeric_limits<int64_t>::max(),
                             stats, executed_seq);
}

ReverseKRanksResult ShardedGirIndex::ReverseKRanksCapped(
    ConstRow q, size_t k, int64_t initial_cap, QueryStats* stats,
    uint64_t* executed_seq) const {
  std::vector<ReverseKRanksResult> parts(shards_.size());
  // The shared global k-th bound: seeded with the caller's cap, folded
  // into each shard's own cap and tightened via fetch-min as shards
  // finish (DynamicGirIndex::ReverseKRanksCapped).
  std::atomic<int64_t> cap{initial_cap};
  const auto maps = FanOut(
      [&](size_t s, const DynamicGirIndex& index, QueryStats* qs) {
        parts[s] = index.ReverseKRanksCapped(q, k, &cap, qs);
      },
      stats, executed_seq);
  return MergeShards(parts, maps, all_shards_, k);
}

std::vector<ReverseTopKResult> ShardedGirIndex::ReverseTopKBatch(
    const Dataset& queries, size_t k, QueryStats* stats,
    uint64_t* executed_seq) const {
  std::vector<std::vector<ReverseTopKResult>> parts(shards_.size());
  const auto maps = FanOut(
      [&](size_t s, const DynamicGirIndex& index, QueryStats* qs) {
        parts[s] = index.ReverseTopKBatch(queries, k, qs);
      },
      stats, executed_seq);
  return MergeShardBatches(parts, maps, all_shards_, k, queries.size());
}

std::vector<ReverseKRanksResult> ShardedGirIndex::ReverseKRanksBatch(
    const Dataset& queries, size_t k, QueryStats* stats,
    uint64_t* executed_seq) const {
  std::vector<std::vector<ReverseKRanksResult>> parts(shards_.size());
  const auto maps = FanOut(
      [&](size_t s, const DynamicGirIndex& index, QueryStats* qs) {
        parts[s] = index.ReverseKRanksBatch(queries, k, qs);
      },
      stats, executed_seq);
  return MergeShardBatches(parts, maps, all_shards_, k, queries.size());
}

// ---- Introspection -------------------------------------------------------

size_t ShardedGirIndex::live_point_count() const {
  std::lock_guard<std::mutex> lk(seq_mu_);
  return live_points_;
}

size_t ShardedGirIndex::live_weight_count() const {
  std::lock_guard<std::mutex> lk(seq_mu_);
  return map_.live_weights();
}

uint64_t ShardedGirIndex::sequence() const {
  std::lock_guard<std::mutex> lk(seq_mu_);
  return seq_;
}

uint64_t ShardedGirIndex::weight_insert_counter() const {
  std::lock_guard<std::mutex> lk(seq_mu_);
  return map_.insert_counter();
}

bool ShardedGirIndex::dirty() const {
  for (const auto& c : counters_) {
    if (c->dirty.load(std::memory_order_relaxed)) return true;
  }
  return false;
}

std::vector<uint64_t> ShardedGirIndex::AppliedSeqVector() const {
  std::vector<uint64_t> v(counters_.size());
  for (size_t s = 0; s < counters_.size(); ++s) {
    v[s] = counters_[s]->applied_seq.load(std::memory_order_acquire);
  }
  return v;
}

std::vector<uint32_t> ShardedGirIndex::WeightOwners() const {
  std::lock_guard<std::mutex> lk(seq_mu_);
  return map_.owners();
}

std::vector<ShardStatsSnapshot> ShardedGirIndex::ShardStats() const {
  const size_t n = shards_.size();
  std::vector<ShardStatsSnapshot> out(n);
  uint64_t total_queries = 0;
  for (size_t s = 0; s < n; ++s) {
    const ShardCounters& c = *counters_[s];
    ShardStatsSnapshot& snap = out[s];
    snap.applied_seq = c.applied_seq.load(std::memory_order_acquire);
    snap.generation = c.generation.load(std::memory_order_relaxed);
    snap.tasks = c.tasks.load(std::memory_order_relaxed);
    snap.queries = c.queries.load(std::memory_order_relaxed);
    snap.mutations = c.mutations.load(std::memory_order_relaxed);
    snap.live_weights = c.live_weights.load(std::memory_order_relaxed);
    snap.points_streamed =
        c.points_streamed.load(std::memory_order_relaxed);
    snap.points_skipped = c.points_skipped.load(std::memory_order_relaxed);
    snap.bg_compactions = c.bg_compactions.load(std::memory_order_relaxed);
    snap.latency_p50_us = c.latency_us.Quantile(0.50);
    snap.latency_p99_us = c.latency_us.Quantile(0.99);
    snap.queue_depth = lanes_->queue_depth(s);
    total_queries += snap.queries;
  }
  for (ShardStatsSnapshot& snap : out) {
    snap.qps_share = total_queries == 0
                         ? 0.0
                         : static_cast<double>(snap.queries) /
                               static_cast<double>(total_queries);
  }
  return out;
}

void ShardedGirIndex::Quiesce() const {
  // The targets are read under the admission lock, so they cut the
  // operation stream at one point on every lane.
  std::vector<uint64_t> targets;
  {
    std::lock_guard<std::mutex> lk(seq_mu_);
    targets = lanes_->Posted();
  }
  lanes_->WaitCompleted(targets);
}

}  // namespace gir
