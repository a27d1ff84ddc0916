#ifndef GIR_GRID_DYNAMIC_INDEX_H_
#define GIR_GRID_DYNAMIC_INDEX_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/counters.h"
#include "core/dataset.h"
#include "core/query_types.h"
#include "core/status.h"
#include "grid/blocked_scan.h"
#include "grid/gir_queries.h"
#include "grid/score_runs.h"
#include "grid/succinct.h"

namespace gir {

class ThreadPool;

/// Construction / maintenance knobs of the dynamic index.
struct DynamicIndexOptions {
  /// Engine and grid knobs applied to every generation's base index
  /// (GirIndex::Build). scan_mode == kTauIndex additionally builds the
  /// τ-index per generation, giving the dynamic query paths the τ fast
  /// path and histogram rank brackets.
  GirOptions gir;
  /// Compaction trigger: when (delta rows + tombstoned base rows) exceeds
  /// this fraction of the base rows (points and weights pooled), the next
  /// mutation folds the delta into a fresh generation.
  double compact_threshold = 0.25;
  /// Automatic threshold-triggered compaction. Disable to drive Compact()
  /// manually (benchmarks measuring sustained delta fill do this).
  bool auto_compact = true;
};

/// DynamicGirIndex — a mutable façade over GirIndex/TauIndex supporting
/// point and weight insertion/deletion with incremental index maintenance
/// (ISSUE 4; cf. Eppstein, "Dynamic Products of Ranks").
///
/// Layout. Each *generation* owns an immutable base pair (P_b, W_b) with a
/// full GirIndex (and, under kTauIndex, a τ-index) built over it. Mutations
/// never touch the built structures:
///   * deletions tombstone a base row in a per-set alive bitmap;
///   * insertions append to a delta Dataset (the exact-scanned delta
///     buffer).
/// For every weight handle the index keeps the scores, under that weight,
/// of the tombstoned base points and of the delta points, computed with
/// the same unfused multiply-add rounding as scalar InnerProduct. They
/// live in shared sorted-run stores (grid/score_runs.h): a point mutation
/// appends one score per handle — O(|W|), plus an amortized
/// O(|W|·log δ) run merge — and a count reads one small unsorted buffer
/// plus one binary search per run level. A deleted delta point still in
/// the buffer is removed in place; one already merged is recorded in a
/// third store of erased delta scores, and added = inserted − erased.
/// The counts stay exact: with a non-positive shifted threshold
/// (k + removed − added ≤ 0) a weight is rejected with no scan at all,
/// which is what keeps the dirty blocked engine's reverse top-k fast.
/// Under the library's strict `<` rank convention this gives the exact
/// algebra
///     rank_live(w, q) = rank_base(w, q) − |{dead base p: f_w(p) < f_w(q)}|
///                                       + |{live delta p: f_w(p) < f_w(q)}|
/// where rank_base is the rank over *all* base points — exactly what the
/// built engines answer. A reverse top-k membership test "rank_live < k"
/// therefore becomes "rank_base < k + removed − added": a per-weight
/// threshold shift. Shifted thresholds within [1, k_cap] are answered by
/// the generation's τ row (the incremental "delta score displaces a
/// threshold" patch); the rest fall back to the blocked engine with
/// per-weight thresholds. Reverse k-ranks shifts the τ histogram brackets
/// by (added − removed) and scans only the unresolved band. Every answer is
/// bit-identical to rebuilding a GirIndex/TauIndex from the live sets
/// (DESIGN.md §12) — the churn property tests assert this after every
/// mutation batch.
///
/// Identifiers. Queries return *live ids*: position in the materialized
/// live ordering — alive base rows in base order followed by alive delta
/// rows in insertion order — i.e. exactly the ids a rebuilt index over
/// LivePoints()/LiveWeights() would return. Deleting a row renumbers the
/// ids behind it, and re-inserting appends at the end, again matching the
/// rebuild.
///
/// Compaction. Compact() materializes the live sets, rebuilds the base
/// index (reusing GirIndex::Build / TauIndex::Build's tiled sweep), clears
/// the delta state and bumps the generation counter; with auto_compact it
/// triggers once the churn fraction crosses compact_threshold. Inserting a
/// weight whose value exceeds the weight partitioner's top boundary also
/// compacts immediately (clamped weight cells would make the paper-mode
/// grid bounds unsound); out-of-range *points* are safe in the delta
/// buffer — they are only ever scored exactly — and fold in at the next
/// compaction.
///
/// Mutations are not thread-safe against queries; the query methods are
/// const and safe to call concurrently with each other.
class DynamicGirIndex {
 public:
  /// Builds generation 0 over copies of the given datasets.
  /// InvalidArgument on empty P, dimension mismatch, or invalid options.
  static Result<DynamicGirIndex> Build(const Dataset& points,
                                       const Dataset& weights,
                                       const DynamicIndexOptions& options = {});

  /// Reassembles a (possibly dirty) index from persisted state — the
  /// GIRDYN01 loader (grid/index_io.h). `tau`, when non-null, is attached
  /// instead of rebuilding the generation's τ-index (it must match the
  /// base weights). Alive bitmaps must be 0/1 bytes of the matching sizes.
  static Result<DynamicGirIndex> FromParts(
      const DynamicIndexOptions& options, uint64_t generation,
      Dataset base_points, Dataset base_weights,
      std::vector<uint8_t> base_point_alive,
      std::vector<uint8_t> base_weight_alive, Dataset delta_points,
      Dataset delta_weights, std::vector<uint8_t> delta_point_alive,
      std::vector<uint8_t> delta_weight_alive,
      std::shared_ptr<const TauIndex> tau = nullptr);

  DynamicGirIndex(DynamicGirIndex&&) = default;
  DynamicGirIndex& operator=(DynamicGirIndex&&) = default;

  // ---- Mutations -------------------------------------------------------

  /// Appends a product vector (width dim(), non-negative finite values).
  /// Its live id is live_point_count() - 1 after the call.
  Status InsertPoint(ConstRow p);

  /// Tombstones the point with the given live id; ids behind it shift
  /// down by one (matching a rebuild over the remaining rows).
  Status DeletePoint(VectorId live_id);

  /// Appends a preference vector (validated: non-negative, summing to 1
  /// within 1e-6 — dominance-based pruning relies on it).
  Status InsertWeight(ConstRow w);

  /// Tombstones the weight with the given live id.
  Status DeleteWeight(VectorId live_id);

  /// Folds tombstones and delta rows into a fresh generation: rebuilds
  /// the base index over the live sets and clears the delta state.
  /// InvalidArgument when no live points remain (an index over an empty P
  /// cannot be built; queries still answer). No-op when clean.
  Status Compact();

  // ---- Queries (const; bit-identical to a rebuild over the live sets) --

  ReverseTopKResult ReverseTopK(ConstRow q, size_t k,
                                QueryStats* stats = nullptr) const;
  ReverseKRanksResult ReverseKRanks(ConstRow q, size_t k,
                                    QueryStats* stats = nullptr) const;

  /// Reverse k-ranks with a shared cross-index upper bound on the global
  /// k-th rank. `shared_cap` (never null) is read to tighten this index's
  /// own k-th cap before the unresolved-band scans, and is fetch-min
  /// updated with this index's exact local k-th rank once k results are
  /// in hand — the protocol ShardedGirIndex uses to let trailing shards
  /// early-abort. Sound for any cap value ≥ the global k-th rank: a
  /// subset's k-th smallest rank is always ≥ the global one, and weights
  /// dropped against the cap therefore cannot belong to the merged top-k.
  /// Always runs the dirty engine (exact on clean indexes too, where all
  /// corrections are zero). Results for the surviving weights are
  /// bit-identical to ReverseKRanks restricted to ranks ≤ the cap.
  ReverseKRanksResult ReverseKRanksCapped(ConstRow q, size_t k,
                                          std::atomic<int64_t>* shared_cap,
                                          QueryStats* stats = nullptr) const;

  /// Query-block calls: results[i] equals ReverseTopK(queries.row(i), k)
  /// (ReverseKRanks for the k-ranks form). `pool` is optional: a clean
  /// index hands it to the base GirIndex's block call, which stripes W; a
  /// dirty index stripes whole rows over it. Results are identical with
  /// and without a pool.
  std::vector<ReverseTopKResult> ReverseTopKBatch(
      const Dataset& queries, size_t k, QueryStats* stats = nullptr,
      ThreadPool* pool = nullptr) const;
  std::vector<ReverseKRanksResult> ReverseKRanksBatch(
      const Dataset& queries, size_t k, QueryStats* stats = nullptr,
      ThreadPool* pool = nullptr) const;

  // ---- Introspection ---------------------------------------------------

  size_t dim() const { return base_points_->dim(); }
  size_t live_point_count() const { return live_point_ids_.size(); }
  size_t live_weight_count() const { return live_weight_ids_.size(); }
  uint64_t generation() const { return generation_; }

  /// True iff any tombstone or delta row exists (queries leave the
  /// delegate-to-base fast path).
  bool dirty() const;

  /// (delta rows + tombstoned base rows) / base rows, points and weights
  /// pooled — the auto-compaction trigger metric.
  double ChurnFraction() const;

  /// Materialized live sets in live-id order (what a rebuild would index).
  Dataset LivePoints() const;
  Dataset LiveWeights() const;

  const DynamicIndexOptions& options() const { return options_; }
  /// Overrides the generation counter. Used by ShardedGirIndex's
  /// background-compaction install path: the replacement index is built
  /// off the scheduler (Build over the marker-time live sets, so it
  /// starts at generation 0) and must carry the generation a synchronous
  /// Compact() at the marker would have produced, so that WAL replay —
  /// which runs that synchronous compaction — converges to the same
  /// counters as the live install.
  void OverrideGeneration(uint64_t generation) { generation_ = generation; }
  /// The current generation's base index (over base_points/base_weights,
  /// tombstones not applied).
  const GirIndex& base() const { return *gir_; }

  // ---- Result-cache invalidation probes (DESIGN.md §16) ----------------

  /// Order-statistic band of the most recent point mutation: a 1-based
  /// lower bound, minimized over this index's live weights, on the
  /// mutated point's score position within each weight's live score list
  /// (the list that contains the point — post-insert for InsertPoint,
  /// pre-erase for DeletePoint), derived from the live-τ heads. A point
  /// mutation can change some weight's reverse top-k membership at
  /// threshold k only if the point sits within that weight's live top-k
  /// band, i.e. only if k >= last_point_band(); a cached reverse k-ranks
  /// answer whose largest stored rank is R can change only if
  /// R + 1 >= last_point_band(). Exact within the τ-head horizon and
  /// conservative beyond it (degraded heads contribute 1, which
  /// invalidates everything — sound, never stale). UINT32_MAX when no
  /// live weight exists. Meaningful only immediately after InsertPoint /
  /// DeletePoint returned OK, read under the same serialization that
  /// ordered the mutation.
  uint32_t last_point_band() const { return last_point_band_; }

  /// Live-τ head of the most recently inserted weight (its smallest live
  /// scores, ascending): head[t-1] is the exact t-th smallest live score
  /// under that weight. rank(w_new, q) >= t iff head[t-1] < f_{w_new}(q)
  /// for any t <= size() — the server's cache uses this to keep entries
  /// the new weight provably cannot join. Empty when the head is
  /// unavailable (no τ-index or a degraded seed) — callers must then
  /// assume the new weight can affect anything. Meaningful only
  /// immediately after InsertWeight returned OK.
  const std::vector<double>& last_weight_head() const {
    return last_weight_head_;
  }

  // ---- Persistence component views (grid/index_io.cc) ------------------

  const Dataset& base_points() const { return *base_points_; }
  const Dataset& base_weights() const { return *base_weights_; }
  const Dataset& delta_points() const { return *delta_points_; }
  const Dataset& delta_weights() const { return *delta_weights_; }
  /// Byte-per-entry views of the packed alive bitmaps — the GIRDYN01
  /// on-disk format keeps one byte per row, so the writer materializes
  /// these on demand.
  std::vector<uint8_t> base_point_alive() const {
    return base_point_alive_.ToBytes();
  }
  std::vector<uint8_t> base_weight_alive() const {
    return base_weight_alive_.ToBytes();
  }
  std::vector<uint8_t> delta_point_alive() const {
    return delta_point_alive_.ToBytes();
  }
  std::vector<uint8_t> delta_weight_alive() const {
    return delta_weight_alive_.ToBytes();
  }

  /// Resident footprint by section (gir_cli info, footprint benches).
  struct MemoryBreakdown {
    size_t base_bytes = 0;       ///< generation's GirIndex (grid + cells)
    size_t tau_bytes = 0;        ///< τ matrix (0 when not kTauIndex)
    size_t block_max_bytes = 0;  ///< block-max aggregates (DESIGN.md §14)
    size_t bitmap_bytes = 0;     ///< packed tombstone bitmaps + rank dirs
    size_t delta_bytes = 0;      ///< delta datasets, score stores, τ heads
    size_t total() const {
      return base_bytes + tau_bytes + block_max_bytes + bitmap_bytes +
             delta_bytes;
    }
  };
  MemoryBreakdown MemoryBytes() const;

 private:
  DynamicGirIndex() = default;

  /// Builds gir_ (and τ under kTauIndex) over the base sets, then derives
  /// every mutable structure (live-id maps, correction arrays,
  /// weight column mirror, delta weight cells) from the current state.
  /// `tau` is attached instead of rebuilt when non-null.
  Status Init(std::shared_ptr<const TauIndex> tau);

  /// Handle spaces: point handle h < base_points_->size() is base row h,
  /// otherwise delta row h - base_points_->size(); weight handles are
  /// analogous. Live ids index live_*_ids_, whose entries are handles.
  size_t num_weight_handles() const {
    return base_weights_->size() + delta_weights_->size();
  }
  bool weight_handle_alive(size_t h) const;
  VectorId live_weight_id(size_t h) const {
    return weight_handle_to_live_[h];
  }
  ConstRow PointRowOfHandle(size_t h) const;
  ConstRow WeightRowOfHandle(size_t h) const;

  /// fq[h] = f_{w_h}(q) for every weight handle (dead included), via the
  /// column mirror — bit-identical to InnerProduct. Overwrites all of
  /// `fq` (no pre-zeroing needed).
  void ScoreWeightHandles(ConstRow q, double* fq) const;
  /// Scores one point under every weight handle (same kernel pass).
  void ScorePointUnderWeights(ConstRow p, double* scores) const;

  void RebuildLiveWeightMap();
  void RebuildWeightColumns();
  void RebuildDeltaWeightCells();
  Status MaybeAutoCompact();

  /// Handle h's live delta scores (inserted minus erased), ascending.
  void LiveDeltaRow(size_t h, std::vector<double>* out) const;

  /// Live τ head maintenance (see the member comments). Seed derives the
  /// base-handle heads from the generation's τ matrix and the current
  /// dead/delta scores, and the delta-handle heads via
  /// SeedDeltaHead; Insert/Erase patch one handle's head — base handles
  /// are columns of live_tau_, delta handles rows of delta_live_tau_ —
  /// for a point entering/leaving the live set with score s.
  void SeedLiveTau();
  void SeedDeltaHead(size_t j);
  void LiveTauInsert(size_t h, double s);
  void LiveTauErase(size_t h, double s);

  /// 1-based lower bound on the position of score s within handle h's
  /// live score multiset, read off the handle's live-τ head. The head
  /// must already reflect the list containing s (call after LiveTauInsert
  /// / before LiveTauErase). Exact while s is within the tracked horizon;
  /// valid+1 beyond it; 1 when the head is degraded (valid == 0).
  uint32_t LiveTauPositionBound(size_t h, double s) const;
  /// Copies handle h's tracked live-τ head (valid prefix) into `out`.
  void CopyLiveTauHead(size_t h, std::vector<double>* out) const;

  /// Shared per-query state of the dirty-path queries. Corrections are
  /// computed lazily: most weights are decided by conservative bounds
  /// (the correction counts are bounded by the dead/live delta point
  /// counts) against the τ row or histogram, so the store counts per
  /// weight run only for the undecided band.
  struct QueryPrep;
  void PrepareQuery(ConstRow q, QueryPrep& prep, QueryStats* stats) const;
  /// Computes the corrections of every handle in `handles` (known or
  /// not) with one batched count per store.
  void EnsureCorrections(QueryPrep& prep,
                         std::span<const uint32_t> handles) const;

  /// Dirty-path engines (one query on the calling thread). `shared_cap`
  /// (nullable) is the cross-index k-th-rank bound protocol described at
  /// ReverseKRanksCapped.
  ReverseTopKResult DirtyReverseTopK(ConstRow q, size_t k,
                                     QueryStats* stats) const;
  ReverseKRanksResult DirtyReverseKRanks(ConstRow q, size_t k,
                                         QueryStats* stats,
                                         std::atomic<int64_t>* shared_cap =
                                             nullptr) const;

  DynamicIndexOptions options_;
  uint64_t generation_ = 0;

  // unique_ptr keeps dataset addresses stable across moves — gir_ and the
  // scanners hold raw pointers into them.
  std::unique_ptr<Dataset> base_points_;
  std::unique_ptr<Dataset> base_weights_;
  std::unique_ptr<Dataset> delta_points_;
  std::unique_ptr<Dataset> delta_weights_;
  /// Packed liveness bitmaps (grid/succinct.h): one bit per row instead
  /// of one byte, with O(1) set-bit counts replacing the std::count
  /// passes the dead_* counters used to need.
  RankSelectBitmap base_point_alive_;
  RankSelectBitmap base_weight_alive_;
  RankSelectBitmap delta_point_alive_;
  RankSelectBitmap delta_weight_alive_;
  size_t dead_base_points_ = 0;
  size_t dead_base_weights_ = 0;
  size_t dead_delta_points_ = 0;
  size_t dead_delta_weights_ = 0;

  std::optional<GirIndex> gir_;
  /// Cells of delta_weights_ under the generation's weight partitioner
  /// (rebuilt on weight insertion; empty dataset → nullopt).
  std::optional<ApproxVectors> delta_weight_cells_;

  /// Per weight handle (dead handles included, until the next
  /// compaction): the scores of tombstoned base points (dead_runs_), of
  /// every delta point inserted this generation (delta_runs_, minus the
  /// deleted ones still in its buffer), and of deleted delta points that
  /// had already been merged into a run level (erased_runs_). The point
  /// handles each store holds are its points; live delta scores below s
  /// are delta_runs_ minus erased_runs_ counts.
  ScoreRuns dead_runs_;
  ScoreRuns delta_runs_;
  ScoreRuns erased_runs_;
  /// One point's score under every weight handle: the mutation paths'
  /// scratch row, kept to spare an allocation per call.
  std::vector<double> point_scores_;

  /// Per delta weight slot (handle - |base W|), sorted ascending: the
  /// scores of every base point row (dead rows included — the
  /// dead_runs_ correction subtracts those, exactly as for base
  /// handles). One O(n·d) pass at InsertWeight buys rank_base as a
  /// binary search, so a delta weight never reaches the blocked
  /// fallback scan on any query path. Cleared when the weight dies;
  /// rebuilt by Init after a load. Immutable once filled, so it is held
  /// delta-coded and bit-packed (grid/succinct.h): CountStrictlyBelow
  /// replaces the lower_bound, a forward Cursor feeds SeedDeltaHead's
  /// ordered merge, and the footprint drops to roughly the entropy of
  /// the sorted score gaps.
  std::vector<CompressedScoreArray> delta_weight_base_scores_;

  /// Incrementally patched LIVE τ thresholds for base weight handles,
  /// k-major like TauIndex: live_tau_[(t-1) * |base W| + h] is the t-th
  /// smallest live score under handle h, valid for t <= live_tau_valid_[h].
  /// Seeded from the generation's τ matrix (minus tombstoned scores, plus
  /// live delta scores), then patched on every point mutation: an insert
  /// below the tracked horizon shifts the column and can grow the valid
  /// length; a delete below it shrinks the length (the next order
  /// statistic past the τ horizon is unknown, so the handle degrades to
  /// the correction path for k beyond it — sound, and rare under random
  /// churn). With k <= live_tau_valid_[h] the dirty reverse top-k test is
  /// the clean engine's single row comparison: fq <= live_tau row k.
  /// Empty unless the generation carries a τ-index.
  std::vector<double> live_tau_;
  std::vector<uint32_t> live_tau_valid_;
  size_t live_tau_cap_ = 0;

  /// The same live τ heads for delta weight slots, one contiguous row of
  /// live_tau_cap_ entries per slot: delta_live_tau_[j][t-1] is the t-th
  /// smallest live score under handle |base W| + j, valid for
  /// t <= delta_live_tau_valid_[j]. Seeded with complete knowledge by the
  /// same O(n·d) pass that fills delta_weight_base_scores_, and patched
  /// by the identical shift algebra on point mutations — so delta
  /// weights share the clean-engine row test instead of paying a
  /// corrections-plus-binary-search slow path per query. Rows are empty
  /// (valid 0) when the generation has no τ-index.
  std::vector<std::vector<double>> delta_live_tau_;
  std::vector<uint32_t> delta_live_tau_valid_;

  /// Conservative lower bound on min(valid length) across every LIVE
  /// handle's head — exact after Seed, ratcheted down by erases (inserts
  /// may regrow a handle without lifting the watermark, which only costs
  /// speed, never soundness). While k <= live_tau_min_valid_ the whole
  /// reverse top-k classification is the clean engine's SIMD
  /// select-less-equal over the patched row; below it, the per-handle
  /// path kicks in.
  uint32_t live_tau_min_valid_ = 0;

  /// Column-major mirror of all weight handles (dead included):
  /// wcol_[i * wcol_stride_ + h] = w_h[i].
  std::vector<double> wcol_;
  size_t wcol_stride_ = 0;

  /// live id -> handle, in live order; and handle -> live id (or -1).
  std::vector<uint32_t> live_point_ids_;
  std::vector<uint32_t> live_weight_ids_;
  std::vector<VectorId> weight_handle_to_live_;

  /// Cache-probe state of the most recent mutation (see the public
  /// accessors). Written by the point/weight mutation paths only.
  uint32_t last_point_band_ = 1;
  std::vector<double> last_weight_head_;
};

}  // namespace gir

#endif  // GIR_GRID_DYNAMIC_INDEX_H_
