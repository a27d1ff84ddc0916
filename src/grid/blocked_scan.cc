#include "grid/blocked_scan.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/simd.h"
#include "grid/bounds.h"

namespace gir {

namespace {

/// Local counter block flushed to QueryStats once per batch; keeps the hot
/// loops free of pointer-chasing increments (same scheme as GInTopK's).
struct LocalCounters {
  uint64_t visited = 0;
  uint64_t filtered = 0;
  uint64_t refined = 0;
  uint64_t dominated = 0;
  uint64_t skipped = 0;
  uint64_t streamed = 0;
  uint64_t blocks_skipped = 0;
  uint64_t blocks_descended = 0;
  uint64_t bound_evals = 0;
  uint64_t inner_products = 0;

  void FlushTo(QueryStats* stats, size_t d) const {
    if (stats == nullptr) return;
    stats->points_visited += visited;
    stats->points_filtered += filtered;
    stats->points_refined += refined;
    stats->points_dominated += dominated;
    stats->points_skipped += skipped;
    stats->points_streamed += streamed;
    stats->blocks_skipped += blocks_skipped;
    stats->blocks_descended += blocks_descended;
    stats->bound_evaluations += bound_evals;
    stats->inner_products += inner_products;
    stats->multiplications += inner_products * d;
  }
};

size_t RoundDownTo(size_t v, size_t multiple) {
  return v / multiple * multiple;
}

/// Block-aggregate tuning for RankPreparedMulti. Aggregates (min/max bound
/// and an upper-bound histogram per (block, weight)) cost ~3 extra SIMD
/// passes over the block, paid once per query batch; each alive slot they
/// resolve saves a full ClassifyBounds pass. Only worth it when enough
/// queries share the weight.
constexpr uint32_t kAggBins = 64;
constexpr uint32_t kAggMinAlive = 8;

}  // namespace

size_t BlockedScanner::BlockPointsFor(size_t dim, BlockedScanConfig config) {
  const size_t d = std::max<size_t>(1, dim);
  size_t bp = config.target_block_bytes / d;
  bp = std::clamp<size_t>(bp, 256, 8192);
  return std::max(ApproxVectors::kColumnPad,
                  RoundDownTo(bp, ApproxVectors::kColumnPad));
}

BlockedScanner::BlockedScanner(const Dataset& points,
                               const ApproxVectors& point_cells,
                               const Dataset& weights,
                               const ApproxVectors& weight_cells,
                               const GridIndex& grid, BoundMode bound_mode,
                               BlockedScanConfig config,
                               const BlockMaxIndex* block_max)
    : points_(&points),
      point_cells_(&point_cells),
      weights_(&weights),
      weight_cells_(&weight_cells),
      grid_(&grid),
      mode_(bound_mode),
      config_(config) {
  const Partitioner& part = grid.point_partitioner();
  uniform_fma_ = mode_ == BoundMode::kExactWeight && part.is_uniform();
  cell_width_ = part.Boundary(1) - part.Boundary(0);
  block_points_ = BlockPointsFor(points.dim(), config_);
  if (config_.weight_batch == 0) config_.weight_batch = 1;
  // Arm the block-max cursor only if the index describes exactly this
  // scanner's block geometry; anything else would pair bounds with the
  // wrong rows, so it is dropped rather than trusted.
  if (block_max != nullptr && block_max->num_points() == points.size() &&
      block_max->dim() == points.dim() &&
      block_max->block_points() == block_points_) {
    bmx_ = block_max;
  }
}

BlockedScanner::QueryContext BlockedScanner::MakeQueryContext(
    ConstRow q, bool use_domin) const {
  QueryContext ctx;
  if (!use_domin) return ctx;
  const size_t n = points_->size();
  const size_t d = points_->dim();
  const Partitioner& part = grid_->point_partitioner();
  std::vector<uint8_t> qc(d);
  for (size_t i = 0; i < d; ++i) qc[i] = part.CellOf(q[i]);
  ctx.dominated.assign(n, 0);
  ctx.block_dominated.assign((n + block_points_ - 1) / block_points_, 0);
  for (size_t j = 0; j < n; ++j) {
    const uint8_t* pc = point_cells_->row(j);
    bool may = true;
    for (size_t i = 0; i < d; ++i) {
      // pc[i] > qc[i] implies p[i] >= alpha[pc[i]] >= alpha[qc[i]+1] > q[i],
      // so p cannot dominate q; the original row is never touched.
      if (pc[i] > qc[i]) {
        may = false;
        break;
      }
    }
    if (may && Dominates(points_->row(j), q)) {
      ctx.dominated[j] = 1;
      ++ctx.block_dominated[j / block_points_];
      ++ctx.dominator_count;
    }
  }
  return ctx;
}

void BlockedScanner::PrepareBatch(size_t w_begin, size_t w_end,
                                  BlockedScratch& scratch) const {
  const size_t batch = w_end - w_begin;
  const size_t d = points_->dim();
  scratch.bound_caps.resize(batch);
  if (bmx_ != nullptr) {
    // Per-(weight, block) score bounds for the cursor: one SIMD pass per
    // (weight, dimension) over the u16 code columns, amortized over every
    // query that reuses this prepared batch.
    const size_t nb = bmx_->num_blocks();
    scratch.bmx_lo.resize(batch * nb);
    scratch.bmx_hi.resize(batch * nb);
    scratch.bmx_caps.resize(batch);
    for (size_t bi = 0; bi < batch; ++bi) {
      bmx_->ScoreBounds(weights_->row(w_begin + bi),
                        scratch.bmx_lo.data() + bi * nb,
                        scratch.bmx_hi.data() + bi * nb,
                        &scratch.bmx_caps[bi]);
    }
  }
  if (uniform_fma_) {
    // Closed-form uniform bounds (DESIGN.md §8): L = cell_width * Σ w[i] *
    // pc[i] and U = L + cell_width * Σ w[i]; only the per-weight gap needs
    // precomputing. The bound cap — cell_width * Σ|w[i]| * n_p — dominates
    // |L| and |U| for every point, so one margin per weight covers the
    // whole scan.
    const size_t np = grid_->point_partitioner().partitions();
    scratch.gaps.resize(batch);
    for (size_t bi = 0; bi < batch; ++bi) {
      ConstRow w = weights_->row(w_begin + bi);
      double sum = 0.0;
      double abs_sum = 0.0;
      for (size_t i = 0; i < d; ++i) {
        sum += w[i];
        abs_sum += std::fabs(w[i]);
      }
      scratch.gaps[bi] = cell_width_ * sum;
      scratch.bound_caps[bi] =
          std::fabs(cell_width_) * abs_sum * static_cast<double>(np);
    }
    return;
  }
  // Table modes: one lower and one upper row of length n_p per (weight,
  // dimension), indexed by the point's cell. For the 2-D grid modes the
  // rows are slices of the Grid table at the weight's cell; for adaptive
  // kExactWeight they are the per-weight scaled boundary rows
  // T[i][c] = w[i] * alpha_p[c].
  const Partitioner& part = grid_->point_partitioner();
  const size_t np = part.partitions();
  scratch.tables.resize(batch * d * 2 * np);
  for (size_t bi = 0; bi < batch; ++bi) {
    double cap = 0.0;  // Σ_i max_c max(|tlo|, |thi|) >= any |bound|
    for (size_t i = 0; i < d; ++i) {
      double* tlo = scratch.tables.data() + ((bi * d + i) * 2) * np;
      double* thi = tlo + np;
      if (mode_ == BoundMode::kExactWeight) {
        const double wi = weights_->row(w_begin + bi)[i];
        for (size_t c = 0; c < np; ++c) {
          tlo[c] = wi * part.Boundary(c);
          thi[c] = wi * part.Boundary(c + 1);
        }
      } else {
        const uint8_t wc = weight_cells_->row(w_begin + bi)[i];
        const double* g = grid_->data();
        const size_t stride = grid_->stride();
        const size_t up_off = grid_->upper_offset();
        for (size_t c = 0; c < np; ++c) {
          tlo[c] = g[c * stride + wc];
          thi[c] = g[c * stride + wc + up_off];
        }
      }
      double dim_max = 0.0;
      for (size_t c = 0; c < np; ++c) {
        dim_max = std::max(dim_max, std::fabs(tlo[c]));
        dim_max = std::max(dim_max, std::fabs(thi[c]));
      }
      cap += dim_max;
    }
    scratch.bound_caps[bi] = cap;
  }
}

void BlockedScanner::RankPrepared(ConstRow q, const QueryContext& qctx,
                                  size_t w_begin, size_t w_end,
                                  const int64_t* thresholds, int64_t* ranks,
                                  BlockedScratch& scratch,
                                  QueryStats* stats) const {
  const size_t batch = w_end - w_begin;
  const size_t n = points_->size();
  const size_t d = points_->dim();
  const uint8_t* dominated =
      qctx.dominated.empty() ? nullptr : qctx.dominated.data();
  LocalCounters c;

  scratch.query_scores.resize(batch);
  scratch.case1_cut.resize(batch);
  scratch.case2_cut.resize(batch);
  scratch.rank_acc.resize(batch);
  if (bmx_ != nullptr) {
    scratch.bmx_cut1.resize(batch);
    scratch.bmx_cut2.resize(batch);
  }
  scratch.active.clear();
  for (size_t bi = 0; bi < batch; ++bi) {
    const Score qs = InnerProduct(weights_->row(w_begin + bi), q);
    scratch.query_scores[bi] = qs;
    ++c.inner_products;
    // One margin per weight, taken at the per-weight bound cap from
    // PrepareBatch. It is at least as wide as the serial scan's per-point
    // margin, so Case-1/2 classifications stay sound; the (slightly wider)
    // band refines through exact inner products either way, keeping
    // results identical. Hoisting it lets a whole block classify against
    // two constants. The uniform FMA path accumulates L and adds the
    // constant gap, so the gap folds into the Case-1 threshold instead of
    // into every point.
    const Score margin = BoundMargin(d, qs, scratch.bound_caps[bi]);
    scratch.case1_cut[bi] =
        uniform_fma_ ? qs - margin - scratch.gaps[bi] : qs - margin;
    scratch.case2_cut[bi] = qs + margin;
    if (bmx_ != nullptr) {
      // The cursor's own margin, taken at the block-max bound cap (which
      // dominates the quantized bounds and every |f_w(p)|): a block hi
      // below qs - bmargin proves computed f_w(p) < qs for every point in
      // it, a block lo at or above qs + bmargin proves the opposite —
      // the same soundness argument the per-point cuts rest on.
      const Score bmargin = BoundMargin(d, qs, scratch.bmx_caps[bi]);
      scratch.bmx_cut1[bi] = qs - bmargin;
      scratch.bmx_cut2[bi] = qs + bmargin;
    }
    scratch.rank_acc[bi] = qctx.dominator_count;
    if (qctx.dominator_count >= thresholds[bi]) {
      ranks[bi] = kRankOverThreshold;
    } else {
      scratch.active.push_back(static_cast<uint32_t>(bi));
    }
  }

  scratch.lower.resize(block_points_);
  scratch.upper.resize(block_points_);
  scratch.band.resize(block_points_);
  const Partitioner& part = grid_->point_partitioner();
  const size_t np = part.partitions();

  for (size_t b0 = 0; b0 < n && !scratch.active.empty();
       b0 += block_points_) {
    const size_t bp = std::min(block_points_, n - b0);
    const size_t blk = b0 / block_points_;
    size_t out = 0;
    for (const uint32_t bi : scratch.active) {
      ConstRow w = weights_->row(w_begin + bi);
      const Score qs = scratch.query_scores[bi];
      const int64_t threshold = thresholds[bi];

      if (bmx_ != nullptr) {
        // Block-max cursor: settle the whole block from its quantized
        // score bounds when they prove every non-dominated point counts
        // (take-all) or none does (skip-zero) — no cell bytes touched, no
        // per-point work. Marginal blocks descend to the engine below.
        const size_t nb = bmx_->num_blocks();
        const double bhi = scratch.bmx_hi[bi * nb + blk];
        const double blo = scratch.bmx_lo[bi * nb + blk];
        const bool take_all = bhi < scratch.bmx_cut1[bi];
        if (take_all || blo >= scratch.bmx_cut2[bi]) {
          const uint32_t dom_b =
              qctx.block_dominated.empty() ? 0 : qctx.block_dominated[blk];
          c.dominated += dom_b;
          c.skipped += bp - dom_b;
          ++c.blocks_skipped;
          if (take_all) {
            const int64_t rank =
                scratch.rank_acc[bi] + static_cast<int64_t>(bp - dom_b);
            if (rank >= threshold) {
              ranks[bi] = kRankOverThreshold;
              continue;
            }
            scratch.rank_acc[bi] = rank;
          }
          scratch.active[out++] = bi;
          continue;
        }
        ++c.blocks_descended;
      }

      c.streamed += bp;
      double* lo = scratch.lower.data();
      double* hi = scratch.upper.data();
      if (uniform_fma_) {
        // Scaling by w[i] * cell_width makes the accumulator the lower
        // bound itself (U differs by the constant gap already folded into
        // the Case-1 cut).
        std::memset(lo, 0, bp * sizeof(double));
        for (size_t i = 0; i < d; ++i) {
          simd::AccumulateScaledBytes(point_cells_->column(i) + b0,
                                      w[i] * cell_width_, lo, bp);
        }
        hi = lo;
      } else {
        std::memset(lo, 0, bp * sizeof(double));
        std::memset(hi, 0, bp * sizeof(double));
        const double* tables = scratch.tables.data();
        for (size_t i = 0; i < d; ++i) {
          const double* tlo = tables + ((bi * d + i) * 2) * np;
          simd::AccumulateLookupBounds(point_cells_->column(i) + b0, tlo,
                                       tlo + np, lo, hi, bp);
        }
      }

      size_t band_count = 0;
      const simd::ClassifyCounts cls = simd::ClassifyBounds(
          lo, hi, scratch.case1_cut[bi], scratch.case2_cut[bi],
          dominated != nullptr ? dominated + b0 : nullptr, bp,
          scratch.band.data(), &band_count);
      c.dominated += cls.skipped;
      c.visited += bp - cls.skipped;
      c.bound_evals += bp * (uniform_fma_ ? 1 : 2);
      c.filtered += cls.case1 + cls.case2;

      // Case-3 band: refine with the exact score, so the rank is exact.
      // Ranks only grow, so crossing the threshold at any point in the
      // block settles the weight as over — same verdict the per-point
      // scan reaches, decided at block granularity.
      int64_t rank =
          scratch.rank_acc[bi] + static_cast<int64_t>(cls.case1);
      bool over = rank >= threshold;
      for (size_t t = 0; t < band_count && !over; ++t) {
        const size_t gj = b0 + scratch.band[t];
        ++c.refined;
        ++c.inner_products;
        if (InnerProduct(w, points_->row(gj)) < qs && ++rank >= threshold) {
          over = true;
        }
      }

      if (over) {
        ranks[bi] = kRankOverThreshold;
      } else {
        scratch.rank_acc[bi] = rank;
        scratch.active[out++] = bi;
      }
    }
    scratch.active.resize(out);
  }

  for (const uint32_t bi : scratch.active) {
    ranks[bi] = scratch.rank_acc[bi];
  }
  c.FlushTo(stats, d);
}

void BlockedScanner::RankPreparedMulti(const ConstRow* queries,
                                       const QueryContext* qctxs,
                                       size_t num_queries, size_t w_begin,
                                       size_t w_end,
                                       const int64_t* thresholds,
                                       int64_t* ranks,
                                       BlockedScratch& scratch,
                                       QueryStats* stats) const {
  const size_t batch = w_end - w_begin;
  const size_t n = points_->size();
  const size_t d = points_->dim();
  LocalCounters c;

  // Per-slot state, slot s = r * batch + bi. The cuts replay the exact
  // single-query computation (same margin at the same bound cap), so each
  // slot classifies precisely as its RankPrepared counterpart would.
  const size_t slots = num_queries * batch;
  scratch.query_scores.resize(slots);
  scratch.case1_cut.resize(slots);
  scratch.case2_cut.resize(slots);
  scratch.rank_acc.resize(slots);
  scratch.alive.assign(slots, 0);
  scratch.alive_counts.assign(batch, 0);
  if (bmx_ != nullptr) {
    scratch.bmx_cut1.resize(slots);
    scratch.bmx_cut2.resize(slots);
    scratch.bmx_done.assign(slots, 0);
  }
  scratch.active.clear();
  for (size_t bi = 0; bi < batch; ++bi) {
    ConstRow w = weights_->row(w_begin + bi);
    for (size_t r = 0; r < num_queries; ++r) {
      const size_t s = r * batch + bi;
      const Score qs = InnerProduct(w, queries[r]);
      ++c.inner_products;
      scratch.query_scores[s] = qs;
      const Score margin = BoundMargin(d, qs, scratch.bound_caps[bi]);
      scratch.case1_cut[s] =
          uniform_fma_ ? qs - margin - scratch.gaps[bi] : qs - margin;
      scratch.case2_cut[s] = qs + margin;
      if (bmx_ != nullptr) {
        const Score bmargin = BoundMargin(d, qs, scratch.bmx_caps[bi]);
        scratch.bmx_cut1[s] = qs - bmargin;
        scratch.bmx_cut2[s] = qs + bmargin;
      }
      scratch.rank_acc[s] = qctxs[r].dominator_count;
      if (qctxs[r].dominator_count >= thresholds[s]) {
        ranks[s] = kRankOverThreshold;
      } else {
        scratch.alive[s] = 1;
        ++scratch.alive_counts[bi];
      }
    }
    if (scratch.alive_counts[bi] > 0) {
      scratch.active.push_back(static_cast<uint32_t>(bi));
    }
  }

  scratch.lower.resize(block_points_);
  scratch.upper.resize(block_points_);
  scratch.band.resize(block_points_);
  scratch.exact.resize(block_points_);
  scratch.exact_valid.resize(block_points_);
  const size_t np = grid_->point_partitioner().partitions();

  for (size_t b0 = 0; b0 < n && !scratch.active.empty();
       b0 += block_points_) {
    const size_t bp = std::min(block_points_, n - b0);
    const size_t blk = b0 / block_points_;
    size_t out = 0;
    for (const uint32_t bi : scratch.active) {
      ConstRow w = weights_->row(w_begin + bi);

      if (bmx_ != nullptr) {
        // Block-max cursor pass: settle every alive slot the quantized
        // block bounds can prove (take-all or skip-zero) before paying
        // for the per-point bound accumulation. If no slot is left
        // unresolved the accumulation — the scan's dominant cost — is
        // skipped outright for this (block, weight) pair.
        const size_t nb = bmx_->num_blocks();
        const double bhi = scratch.bmx_hi[bi * nb + blk];
        const double blo = scratch.bmx_lo[bi * nb + blk];
        bool any_unresolved = false;
        for (size_t r = 0; r < num_queries; ++r) {
          const size_t s = r * batch + bi;
          if (scratch.alive[s] == 0) continue;
          const bool take_all = bhi < scratch.bmx_cut1[s];
          if (!take_all && blo < scratch.bmx_cut2[s]) {
            scratch.bmx_done[s] = 0;
            any_unresolved = true;
            ++c.blocks_descended;
            continue;
          }
          scratch.bmx_done[s] = 1;
          const uint32_t dom_b = qctxs[r].block_dominated.empty()
                                     ? 0
                                     : qctxs[r].block_dominated[blk];
          c.dominated += dom_b;
          c.skipped += bp - dom_b;
          ++c.blocks_skipped;
          if (take_all) {
            const int64_t rank =
                scratch.rank_acc[s] + static_cast<int64_t>(bp - dom_b);
            if (rank >= thresholds[s]) {
              ranks[s] = kRankOverThreshold;
              scratch.alive[s] = 0;
              --scratch.alive_counts[bi];
            } else {
              scratch.rank_acc[s] = rank;
            }
          }
        }
        if (!any_unresolved) {
          if (scratch.alive_counts[bi] > 0) scratch.active[out++] = bi;
          continue;
        }
      }

      // Bounds for this (block, weight) pair: query-independent, so one
      // accumulation serves the whole query block.
      double* lo = scratch.lower.data();
      double* hi = scratch.upper.data();
      if (uniform_fma_) {
        std::memset(lo, 0, bp * sizeof(double));
        for (size_t i = 0; i < d; ++i) {
          simd::AccumulateScaledBytes(point_cells_->column(i) + b0,
                                      w[i] * cell_width_, lo, bp);
        }
        hi = lo;
      } else {
        std::memset(lo, 0, bp * sizeof(double));
        std::memset(hi, 0, bp * sizeof(double));
        const double* tables = scratch.tables.data();
        for (size_t i = 0; i < d; ++i) {
          const double* tlo = tables + ((bi * d + i) * 2) * np;
          simd::AccumulateLookupBounds(point_cells_->column(i) + b0, tlo,
                                       tlo + np, lo, hi, bp);
        }
      }
      c.bound_evals += bp * (uniform_fma_ ? 1 : 2);
      c.streamed += bp;
      std::memset(scratch.exact_valid.data(), 0, bp);

      // Block aggregates, shared by every alive query of this weight. The
      // extremes settle blocks that are entirely Case 1 or Case 2 for a
      // slot exactly (the per-point classification is implied); the
      // histogram gives a sound lower bound on the Case-1 count — a point
      // binned strictly below bin(case1_cut) certainly has hi < the cut —
      // which is usually enough to prove rank >= threshold without
      // touching the per-point bounds at all.
      const bool use_agg = scratch.alive_counts[bi] >= kAggMinAlive;
      double min_lo = 0.0, max_lo = 0.0, min_hi = 0.0, max_hi = 0.0;
      double agg_inv = 0.0;
      if (use_agg) {
        simd::MinMaxDoubles(lo, bp, &min_lo, &max_lo);
        if (hi == lo) {
          min_hi = min_lo;
          max_hi = max_lo;
        } else {
          simd::MinMaxDoubles(hi, bp, &min_hi, &max_hi);
        }
        agg_inv = max_hi > min_hi ? kAggBins / (max_hi - min_hi) : 0.0;
        scratch.agg_bins.resize(block_points_);
        scratch.agg_hist.assign(kAggBins, 0);
        simd::BinDoubles(hi, bp, min_hi, agg_inv, kAggBins,
                         scratch.agg_bins.data());
        for (size_t j = 0; j < bp; ++j) ++scratch.agg_hist[scratch.agg_bins[j]];
        for (size_t b = 1; b < kAggBins; ++b) {
          scratch.agg_hist[b] += scratch.agg_hist[b - 1];
        }
      }

      for (size_t r = 0; r < num_queries; ++r) {
        const size_t s = r * batch + bi;
        if (scratch.alive[s] == 0) continue;
        if (bmx_ != nullptr && scratch.bmx_done[s] != 0) continue;
        if (use_agg) {
          const uint32_t dom_b = qctxs[r].block_dominated.empty()
                                     ? 0
                                     : qctxs[r].block_dominated[blk];
          const double cut1 = scratch.case1_cut[s];
          if (max_hi < cut1) {
            // Every point classifies Case 1; the dominated ones are
            // skipped and pre-counted, exactly as ClassifyBounds would.
            c.dominated += dom_b;
            c.visited += bp - dom_b;
            c.filtered += bp - dom_b;
            const int64_t rank =
                scratch.rank_acc[s] + static_cast<int64_t>(bp - dom_b);
            if (rank >= thresholds[s]) {
              ranks[s] = kRankOverThreshold;
              scratch.alive[s] = 0;
              --scratch.alive_counts[bi];
            } else {
              scratch.rank_acc[s] = rank;
            }
            continue;
          }
          if (min_lo >= scratch.case2_cut[s]) {
            // Every point classifies Case 2: the rank is untouched.
            c.dominated += dom_b;
            c.visited += bp - dom_b;
            c.filtered += bp - dom_b;
            continue;
          }
          if (agg_inv > 0.0 && cut1 > min_hi) {
            const double t = (cut1 - min_hi) * agg_inv;
            const uint32_t bc = t >= kAggBins ? kAggBins - 1
                                              : static_cast<uint32_t>(t);
            if (bc > 0) {
              // Sound Case-1 undercount: every point in bins < bc has
              // hi < cut1; at most dom_b of them are skipped dominators.
              const int64_t lb =
                  static_cast<int64_t>(scratch.agg_hist[bc - 1]) -
                  static_cast<int64_t>(dom_b);
              if (scratch.rank_acc[s] + lb >= thresholds[s]) {
                c.dominated += dom_b;
                c.visited += bp - dom_b;
                c.filtered += bp - dom_b;
                ranks[s] = kRankOverThreshold;
                scratch.alive[s] = 0;
                --scratch.alive_counts[bi];
                continue;
              }
            }
          }
        }
        const uint8_t* dominated =
            qctxs[r].dominated.empty() ? nullptr : qctxs[r].dominated.data();
        size_t band_count = 0;
        const simd::ClassifyCounts cls = simd::ClassifyBounds(
            lo, hi, scratch.case1_cut[s], scratch.case2_cut[s],
            dominated != nullptr ? dominated + b0 : nullptr, bp,
            scratch.band.data(), &band_count);
        c.dominated += cls.skipped;
        c.visited += bp - cls.skipped;
        c.filtered += cls.case1 + cls.case2;

        const Score qs = scratch.query_scores[s];
        const int64_t threshold = thresholds[s];
        int64_t rank =
            scratch.rank_acc[s] + static_cast<int64_t>(cls.case1);
        bool over = rank >= threshold;
        for (size_t t = 0; t < band_count && !over; ++t) {
          const size_t lj = scratch.band[t];
          // f_w(p) does not depend on the query: compute it for the first
          // query whose band reaches p, reuse it for the rest.
          if (scratch.exact_valid[lj] == 0) {
            scratch.exact[lj] = InnerProduct(w, points_->row(b0 + lj));
            scratch.exact_valid[lj] = 1;
            ++c.inner_products;
          }
          ++c.refined;
          if (scratch.exact[lj] < qs && ++rank >= threshold) over = true;
        }

        if (over) {
          ranks[s] = kRankOverThreshold;
          scratch.alive[s] = 0;
          --scratch.alive_counts[bi];
        } else {
          scratch.rank_acc[s] = rank;
        }
      }
      if (scratch.alive_counts[bi] > 0) scratch.active[out++] = bi;
    }
    scratch.active.resize(out);
  }

  for (size_t s = 0; s < slots; ++s) {
    if (scratch.alive[s] != 0) ranks[s] = scratch.rank_acc[s];
  }
  c.FlushTo(stats, d);
}

void BlockedScanner::BracketRanksMulti(const ConstRow* queries,
                                       const QueryContext* qctxs,
                                       size_t num_queries, size_t w_begin,
                                       size_t w_end, int64_t* lb, int64_t* ub,
                                       size_t row_stride,
                                       BlockedScratch& scratch,
                                       QueryStats* stats) const {
  const size_t batch = w_end - w_begin;
  const size_t n = points_->size();
  const size_t d = points_->dim();
  LocalCounters c;

  const size_t slots = num_queries * batch;
  scratch.query_scores.resize(slots);
  scratch.case1_cut.resize(slots);
  scratch.case2_cut.resize(slots);
  for (size_t bi = 0; bi < batch; ++bi) {
    ConstRow w = weights_->row(w_begin + bi);
    for (size_t r = 0; r < num_queries; ++r) {
      const size_t s = r * batch + bi;
      const Score qs = InnerProduct(w, queries[r]);
      ++c.inner_products;
      scratch.query_scores[s] = qs;
      const Score margin = BoundMargin(d, qs, scratch.bound_caps[bi]);
      scratch.case1_cut[s] =
          uniform_fma_ ? qs - margin - scratch.gaps[bi] : qs - margin;
      scratch.case2_cut[s] = qs + margin;
      // Dominators are counted into the rank up front, exactly as the
      // scanning paths do; the per-block terms below cover only the rest.
      lb[r * row_stride + bi] = qctxs[r].dominator_count;
      ub[r * row_stride + bi] = qctxs[r].dominator_count;
    }
  }

  scratch.lower.resize(block_points_);
  scratch.upper.resize(block_points_);
  scratch.agg_bins.resize(block_points_);
  const size_t np = grid_->point_partitioner().partitions();

  for (size_t b0 = 0; b0 < n; b0 += block_points_) {
    const size_t bp = std::min(block_points_, n - b0);
    const size_t blk = b0 / block_points_;
    for (size_t bi = 0; bi < batch; ++bi) {
      double* lo = scratch.lower.data();
      double* hi = scratch.upper.data();
      if (uniform_fma_) {
        std::memset(lo, 0, bp * sizeof(double));
        for (size_t i = 0; i < d; ++i) {
          simd::AccumulateScaledBytes(point_cells_->column(i) + b0,
                                      weights_->row(w_begin + bi)[i] *
                                          cell_width_,
                                      lo, bp);
        }
        hi = lo;
      } else {
        std::memset(lo, 0, bp * sizeof(double));
        std::memset(hi, 0, bp * sizeof(double));
        const double* tables = scratch.tables.data();
        for (size_t i = 0; i < d; ++i) {
          const double* tlo = tables + ((bi * d + i) * 2) * np;
          simd::AccumulateLookupBounds(point_cells_->column(i) + b0, tlo,
                                       tlo + np, lo, hi, bp);
        }
      }
      c.bound_evals += bp * (uniform_fma_ ? 1 : 2);
      c.streamed += bp;

      // Histograms of both bound arrays (one serves both when aliased).
      // Binning is monotone — a point in bin b has b <= t < b + 1 for
      // t = (value - min) * inv, clamped to [0, kAggBins - 1] — so bin
      // comparisons against a cut's bin give certain inequalities.
      double min_lo = 0.0, max_lo = 0.0, min_hi = 0.0, max_hi = 0.0;
      simd::MinMaxDoubles(lo, bp, &min_lo, &max_lo);
      if (hi == lo) {
        min_hi = min_lo;
        max_hi = max_lo;
      } else {
        simd::MinMaxDoubles(hi, bp, &min_hi, &max_hi);
      }
      const double inv_hi =
          max_hi > min_hi ? kAggBins / (max_hi - min_hi) : 0.0;
      scratch.agg_hist.assign(kAggBins, 0);
      simd::BinDoubles(hi, bp, min_hi, inv_hi, kAggBins,
                       scratch.agg_bins.data());
      for (size_t j = 0; j < bp; ++j) ++scratch.agg_hist[scratch.agg_bins[j]];
      for (size_t b = 1; b < kAggBins; ++b) {
        scratch.agg_hist[b] += scratch.agg_hist[b - 1];
      }
      const uint32_t* hist_hi = scratch.agg_hist.data();
      double inv_lo = inv_hi;
      const uint32_t* hist_lo = hist_hi;
      if (hi != lo) {
        inv_lo = max_lo > min_lo ? kAggBins / (max_lo - min_lo) : 0.0;
        scratch.agg_hist_lo.assign(kAggBins, 0);
        simd::BinDoubles(lo, bp, min_lo, inv_lo, kAggBins,
                         scratch.agg_bins.data());
        for (size_t j = 0; j < bp; ++j) {
          ++scratch.agg_hist_lo[scratch.agg_bins[j]];
        }
        for (size_t b = 1; b < kAggBins; ++b) {
          scratch.agg_hist_lo[b] += scratch.agg_hist_lo[b - 1];
        }
        hist_lo = scratch.agg_hist_lo.data();
      }

      for (size_t r = 0; r < num_queries; ++r) {
        const size_t s = r * batch + bi;
        const size_t g = r * row_stride + bi;
        const int64_t dom_b = qctxs[r].block_dominated.empty()
                                  ? 0
                                  : qctxs[r].block_dominated[blk];
        // Certain Case-1 count: a point binned strictly below the cut's
        // bin has hi < cut1, hence f_w(p) < f_w(q_r). Up to dom_b of
        // those may be skipped dominators already counted above, so
        // subtracting dom_b keeps the lower bound sound.
        const double cut1 = scratch.case1_cut[s];
        int64_t c1 = 0;
        if (max_hi < cut1) {
          c1 = static_cast<int64_t>(bp);
        } else if (inv_hi > 0.0 && cut1 > min_hi) {
          const double t = (cut1 - min_hi) * inv_hi;
          const uint32_t bc =
              t >= kAggBins ? kAggBins - 1 : static_cast<uint32_t>(t);
          if (bc > 0) c1 = static_cast<int64_t>(hist_hi[bc - 1]);
        }
        lb[g] += std::max<int64_t>(0, c1 - dom_b);
        // Certain Case-2 count: a point binned at or above ceil((cut2 -
        // min_lo) * inv_lo) has lo >= cut2, hence f_w(p) >= f_w(q_r) and
        // cannot outrank. Dominators never certainly classify Case 2 by
        // this test alone, but assuming up to dom_b of them do keeps the
        // upper bound sound.
        const double cut2 = scratch.case2_cut[s];
        int64_t c2 = 0;
        if (min_lo >= cut2) {
          c2 = static_cast<int64_t>(bp);
        } else if (inv_lo > 0.0) {
          const double t2 = std::ceil((cut2 - min_lo) * inv_lo);
          if (t2 < kAggBins) {
            // t2 >= 1 here: the whole-block branch handled cut2 <= min_lo.
            const uint32_t bc2 = static_cast<uint32_t>(t2);
            c2 = static_cast<int64_t>(bp) -
                 static_cast<int64_t>(hist_lo[bc2 - 1]);
          }
        }
        ub[g] += static_cast<int64_t>(bp) - dom_b -
                 std::max<int64_t>(0, c2 - dom_b);
      }
    }
  }
  c.FlushTo(stats, d);
}

void BlockedScanner::RankBatch(ConstRow q, const QueryContext& qctx,
                               size_t w_begin, size_t w_end,
                               const int64_t* thresholds, int64_t* ranks,
                               BlockedScratch& scratch,
                               QueryStats* stats) const {
  PrepareBatch(w_begin, w_end, scratch);
  RankPrepared(q, qctx, w_begin, w_end, thresholds, ranks, scratch, stats);
}

}  // namespace gir
