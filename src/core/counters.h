#ifndef GIR_CORE_COUNTERS_H_
#define GIR_CORE_COUNTERS_H_

#include <cstdint>
#include <string>

namespace gir {

/// Instrumentation counters threaded through every query algorithm. These
/// regenerate the paper's non-time metrics: pairwise computation counts
/// (Fig. 11b/11d), accessed-data percentages (Fig. 15a) and Grid filtering
/// rates (Fig. 15b, Table 4).
///
/// A "pairwise computation" is one full inner product f_w(p) (d
/// multiplications + d additions), the unit the paper counts. Grid bound
/// evaluations are additions only and are counted separately.
struct QueryStats {
  /// Full inner products evaluated (the paper's pairwise computations).
  uint64_t inner_products = 0;
  /// Scalar multiplications executed (d per inner product).
  uint64_t multiplications = 0;
  /// Grid-index bound evaluations (each costs d table-lookup additions):
  /// one per (point, weight) bound the engine computed, two where the
  /// lower and upper bound are accumulated separately. The per-point
  /// engines skip Domin-buffered points before computing bounds; the
  /// blocked engine accumulates a streamed block's bounds for every point
  /// in it, dominated or not, once per (block, weight) however many
  /// queries share the block, so there it is points_streamed times 1
  /// (uniform-FMA bounds) or 2 on every entry point.
  uint64_t bound_evaluations = 0;
  /// Points visited during scans (approximate or exact).
  uint64_t points_visited = 0;
  /// Points resolved by the Grid bounds alone (Case 1 or Case 2).
  uint64_t points_filtered = 0;
  /// Points that needed exact refinement (Case 3).
  uint64_t points_refined = 0;
  /// Points skipped because they were in the Domin buffer.
  uint64_t points_dominated = 0;
  /// Points settled without any per-point work — their whole block was
  /// resolved by a block-max bound (grid/block_max.h). Disjoint from
  /// points_visited: a point is either evaluated (visited) or skipped.
  uint64_t points_skipped = 0;
  /// Points streamed through the blocked engine's bound accumulators:
  /// every point of a block the per-point engine ran on, dominated or
  /// not (the SIMD accumulation touches the whole block's cell bytes).
  /// This is the work a block-max skip avoids — a skipped (block,
  /// weight) pair streams nothing — so streamed(off) / streamed(on) is
  /// the cursor's points-evaluated reduction.
  uint64_t points_streamed = 0;
  /// (block, weight-slot) pairs the block-max cursor resolved outright.
  uint64_t blocks_skipped = 0;
  /// (block, weight-slot) pairs that descended to the per-point engine
  /// with an active block-max index attached.
  uint64_t blocks_descended = 0;
  /// R-tree nodes whose MBR was examined.
  uint64_t nodes_visited = 0;
  /// R-tree nodes pruned (subtree counted or discarded wholesale).
  uint64_t nodes_pruned = 0;
  /// Weight vectors fully evaluated (not pruned by a group/bucket bound).
  uint64_t weights_evaluated = 0;
  /// Weight vectors pruned in groups (BBR subtree / MPA bucket pruning).
  uint64_t weights_pruned = 0;

  void Reset() { *this = QueryStats(); }

  /// Element-wise accumulation, for averaging over repeated queries.
  QueryStats& operator+=(const QueryStats& other);

  /// Fraction of visited points resolved without an exact score,
  /// points_filtered / points_visited; 0 if nothing was visited.
  double FilterRate() const;

  /// Debug-friendly one-line rendering of the non-zero counters.
  std::string ToString() const;
};

}  // namespace gir

#endif  // GIR_CORE_COUNTERS_H_
