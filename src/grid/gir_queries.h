#ifndef GIR_GRID_GIR_QUERIES_H_
#define GIR_GRID_GIR_QUERIES_H_

#include <cstddef>
#include <memory>

#include "core/counters.h"
#include "core/dataset.h"
#include "core/query_types.h"
#include "core/status.h"
#include "grid/approx_vector.h"
#include "grid/block_max.h"
#include "grid/gin_topk.h"
#include "grid/grid_index.h"
#include "grid/tau_index.h"

namespace gir {

class ThreadPool;

/// How GirIndex executes a query's scan over (W × P).
enum class ScanMode {
  /// One GInTopK pass over all of P per weight (the paper's loop nest).
  kWeightAtATime,
  /// Weight-batched, cache-blocked engine (grid/blocked_scan.h): points
  /// are processed in L2-sized blocks and a batch of weights is evaluated
  /// against each block with the SIMD bound kernels, so each point-cell
  /// byte is streamed once per batch instead of once per weight. Results
  /// are identical to kWeightAtATime on every tie-breaking convention in
  /// DESIGN.md §2.
  kBlocked,
  /// Preference-side τ-index (grid/tau_index.h): reverse top-k for
  /// k <= GirOptions::tau.k_max is a single O(|W|·d) threshold pass with
  /// no product scan; reverse k-ranks brackets every rank with the score
  /// histograms and falls back to the blocked engine only for the
  /// unresolved band. Results remain bit-identical to the other modes
  /// (DESIGN.md §10). Queries the τ vector cannot answer (k_max < k <=
  /// |P| reverse top-k), or issued before a τ-index is built or attached,
  /// run on the blocked engine.
  kTauIndex,
};

/// Construction options for GirIndex. Defaults are the paper's defaults
/// (Table 5: n = 32; Algorithm 1's upper-bound-first evaluation with the
/// shared Domin buffer).
struct GirOptions {
  /// Number of value-range partitions n for both P and W. Theorem 1 gives
  /// the n needed for a target filter rate (stats/model.h).
  size_t partitions = 32;
  /// Bound evaluation strategy. Default is the per-weight scaled grid row
  /// (kExactWeight) — same results, strictly tighter bounds than the
  /// paper's 2-D quantization for normalized weights; the paper-faithful
  /// modes (kUpperFirst, kFused) remain available and are compared in
  /// bench_ablation_gir.
  BoundMode bound_mode = BoundMode::kExactWeight;
  /// Maintain the cross-weight dominance buffer (Algorithm 1's Domin).
  /// Disabled only by the ablation bench.
  bool use_domin = true;
  /// Scan engine for ReverseTopK / ReverseKRanks. Default keeps the
  /// paper-faithful weight-at-a-time loop; the block calls always use the
  /// blocked (or τ) engine.
  /// Not persisted by grid/index_io (it is an execution knob, not index
  /// state); loaded indexes start at the default.
  ScanMode scan_mode = ScanMode::kWeightAtATime;
  /// τ-index build knobs, used when scan_mode == kTauIndex: Build() then
  /// also scores P × W once and materializes the thresholds + histograms
  /// (grid/tau_index.h). Ignored by the other modes.
  TauIndexOptions tau;
  /// Arm the blocked engine's block-max cursor (grid/block_max.h): Build()
  /// materializes the quantized per-(block, dimension) extremes and every
  /// blocked scan skips the blocks they prove non-competitive. Results are
  /// bit-identical either way; this is an execution/footprint knob, not
  /// persisted index state (though the structure itself is serialized with
  /// the index so loads need not rebuild it).
  bool use_block_max = true;
};

/// GIR — the paper's Grid-index reverse rank query processor. Owns the
/// Grid-index table and the approximate vectors of P and W; answers
/// reverse top-k (Algorithm 2) and reverse k-ranks (Algorithm 3) with the
/// GInTopK filtered scan (Algorithm 1).
///
/// The referenced datasets must outlive the index and must not grow while
/// it is in use (approximate vectors are built at construction).
class GirIndex {
 public:
  /// Builds with uniform (equal-width) partitioners whose ranges are the
  /// datasets' maxima. InvalidArgument on dimension mismatch, empty P, or
  /// invalid options.
  static Result<GirIndex> Build(const Dataset& points, const Dataset& weights,
                                const GirOptions& options = {});

  /// Builds with caller-supplied partitioners (used by the adaptive-grid
  /// extension). Partitioner top boundaries must cover the dataset maxima,
  /// otherwise the grid bounds would not contain the true products.
  static Result<GirIndex> BuildWithPartitioners(const Dataset& points,
                                                const Dataset& weights,
                                                Partitioner point_partitioner,
                                                Partitioner weight_partitioner,
                                                const GirOptions& options = {});

  /// Reassembles an index from previously built components (the
  /// persistence path, grid/index_io.h) without re-quantizing. Validates
  /// shapes and partitioner coverage; the caller is responsible for
  /// passing the same datasets the cells were built from.
  static Result<GirIndex> Assemble(const Dataset& points,
                                   const Dataset& weights,
                                   Partitioner point_partitioner,
                                   Partitioner weight_partitioner,
                                   ApproxVectors point_cells,
                                   ApproxVectors weight_cells,
                                   const GirOptions& options = {});

  /// Reverse top-k (Algorithm 2, GIRTop-k). q must have width dim().
  /// Under kWeightAtATime this is the paper's scalar loop — the
  /// reproduction reference the figure benches time and the tests compare
  /// against; the other modes answer it as a one-row ReverseTopKBatch.
  ReverseTopKResult ReverseTopK(ConstRow q, size_t k,
                                QueryStats* stats = nullptr) const;

  /// Reverse k-ranks (Algorithm 3, GIRk-Rank). Scalar under
  /// kWeightAtATime, a one-row ReverseKRanksBatch otherwise.
  ReverseKRanksResult ReverseKRanks(ConstRow q, size_t k,
                                    QueryStats* stats = nullptr) const;

  /// Reverse top-k over a query block: answers one query per row of
  /// `queries` (each of width dim()) as one multi-query execution — the
  /// shape a serving loop draining a request queue needs. results[i]
  /// equals ReverseTopK(queries.row(i), k). Under kTauIndex (with an
  /// attached τ-index that answers k) the whole block is scored against W
  /// in register-tiled sweeps (TauIndex::TopKBatchRange); otherwise the
  /// blocked engine resolves the block via RankPreparedMulti, streaming
  /// each point block and accumulating each weight's bounds once per
  /// query batch instead of once per query.
  ///
  /// `pool` (optional) stripes W over its workers — whole weight batches
  /// for the blocked engine, τ chunks for the τ sweep — with each stripe
  /// resolving the whole block; results are identical to the serial call.
  /// Without a pool (or with one worker) the call runs on the caller's
  /// thread.
  std::vector<ReverseTopKResult> ReverseTopKBatch(
      const Dataset& queries, size_t k, QueryStats* stats = nullptr,
      ThreadPool* pool = nullptr) const;

  /// Reverse k-ranks over a query block; results[i] equals
  /// ReverseKRanks(queries.row(i), k). Same engine selection as
  /// ReverseTopKBatch: tiled τ bounding pass + shared blocked fallback
  /// under kTauIndex, RankPreparedMulti otherwise. With a pool, stripes
  /// keep private (rank, id) heaps and share one monotone k-th-rank bound
  /// per query; scans are capped at bound + 1 so rank ties survive to the
  /// merge, which restores the library-wide (rank, id) order.
  std::vector<ReverseKRanksResult> ReverseKRanksBatch(
      const Dataset& queries, size_t k, QueryStats* stats = nullptr,
      ThreadPool* pool = nullptr) const;

  const Dataset& points() const { return *points_; }
  const Dataset& weights() const { return *weights_; }
  const GridIndex& grid() const { return grid_; }
  const ApproxVectors& point_cells() const { return point_cells_; }
  const ApproxVectors& weight_cells() const { return weight_cells_; }
  const GirOptions& options() const { return options_; }
  size_t dim() const { return points_->dim(); }

  /// The attached τ-index, or nullptr if none was built/attached.
  const TauIndex* tau_index() const { return tau_.get(); }

  /// The block-max skip structure, or nullptr (built with use_block_max
  /// off, or assembled from a legacy file and not yet attached). Shared so
  /// persistence and the dynamic wrapper can alias it without copies.
  std::shared_ptr<const BlockMaxIndex> block_max() const { return bmx_; }

  /// Attaches a block-max index built or loaded separately (the
  /// persistence path). InvalidArgument unless it matches this index's
  /// point set and the blocked engine's block size. The caller (the
  /// loader) is responsible for soundness-checking untrusted bounds via
  /// BlockMaxIndex::SoundFor before attaching.
  Status AttachBlockMax(std::shared_ptr<const BlockMaxIndex> bmx);

  /// Attaches a τ-index built or loaded separately (the persistence path:
  /// LoadTauIndex + AttachTauIndex). InvalidArgument unless its shape
  /// matches this index's datasets. Does not change scan_mode.
  Status AttachTauIndex(std::shared_ptr<const TauIndex> tau);

  /// Switches the scan engine after construction (scan_mode is an
  /// execution knob, not persisted index state). Selecting kTauIndex
  /// without an attached τ-index is allowed — queries then run on the
  /// blocked engine until one is attached.
  void set_scan_mode(ScanMode mode) { options_.scan_mode = mode; }

  /// Total index memory: grid table + both approximate-vector arrays.
  /// (The bit-packed §3.2 representation is smaller still; this reports
  /// the scan-time footprint.)
  size_t MemoryBytes() const;

 private:
  GirIndex(const Dataset& points, const Dataset& weights, GridIndex grid,
           ApproxVectors point_cells, ApproxVectors weight_cells,
           GirOptions options);

  /// The kTauIndex reverse k-ranks block: tiled τ bracketing pass, then
  /// one shared blocked fallback over every query's unresolved band.
  std::vector<ReverseKRanksResult> TauReverseKRanksBatch(
      const Dataset& queries, size_t k, ThreadPool* pool,
      QueryStats* stats) const;

  const Dataset* points_;
  const Dataset* weights_;
  GridIndex grid_;
  ApproxVectors point_cells_;
  ApproxVectors weight_cells_;
  GirOptions options_;
  std::shared_ptr<const TauIndex> tau_;
  std::shared_ptr<const BlockMaxIndex> bmx_;
};

}  // namespace gir

#endif  // GIR_GRID_GIR_QUERIES_H_
