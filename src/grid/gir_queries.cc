#include "grid/gir_queries.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/thread_pool.h"
#include "grid/blocked_scan.h"

namespace gir {

namespace {

/// Iterates weight batches of the scanner's batch width over [begin, end),
/// invoking fn(batch_begin, batch_end) for each.
template <typename Fn>
void ForEachWeightBatch(size_t begin, size_t end, size_t batch, Fn&& fn) {
  for (size_t b = begin; b < end; b += batch) {
    fn(b, std::min(b + batch, end));
  }
}

/// Pushes one RKR candidate through the shared (rank, id) max-heap logic.
/// Identical to the sequential weight-at-a-time update, so blocked and
/// serial engines keep bit-identical heaps when fed in id order.
void PushRankedWeight(std::vector<RankedWeight>& heap, size_t k,
                      RankedWeight entry) {
  if (heap.size() < k) {
    heap.push_back(entry);
    std::push_heap(heap.begin(), heap.end());
  } else if (entry < heap.front()) {
    std::pop_heap(heap.begin(), heap.end());
    heap.back() = entry;
    std::push_heap(heap.begin(), heap.end());
  }
}

/// Lowers `bound` to `candidate` if smaller (atomic CAS-min).
void AtomicMin(std::atomic<int64_t>& bound, int64_t candidate) {
  int64_t current = bound.load(std::memory_order_relaxed);
  while (candidate < current &&
         !bound.compare_exchange_weak(current, candidate,
                                      std::memory_order_relaxed)) {
  }
}

/// Stripe grain for pool-parallel passes: a few stripes per worker, each
/// a whole number of `align` items (so every stripe of the blocked engine
/// runs full-width weight batches).
size_t StripeGrain(size_t total, const ThreadPool* pool, size_t align) {
  const size_t threads = pool != nullptr ? pool->thread_count() : 1;
  const size_t target = std::max<size_t>(1, threads * 4);
  const size_t grain = std::max<size_t>(1, (total + target - 1) / target);
  return (grain + align - 1) / align * align;
}

/// τ passes over fewer weights than this stay on the calling thread: the
/// O(|W|·d) sweep is then cheaper than handing stripes to the pool.
constexpr size_t kMinTauStripeWeights = 1024;

/// A stripe's share of a reverse top-k block.
struct TopKStripe {
  std::vector<ReverseTopKResult> results;
  QueryStats stats;
};

void MergeTopKStripe(TopKStripe& into, const TopKStripe& stripe) {
  for (size_t qi = 0; qi < into.results.size(); ++qi) {
    into.results[qi].insert(into.results[qi].end(),
                            stripe.results[qi].begin(),
                            stripe.results[qi].end());
  }
  into.stats += stripe.stats;
}

/// The blocked engine's view of a query block: the row views and each
/// query's dominator context (an O(n·d) pass per query, striped over the
/// pool when there is one).
struct BlockContexts {
  std::vector<ConstRow> rows;
  std::vector<BlockedScanner::QueryContext> qctxs;
};

BlockContexts MakeBlockContexts(const BlockedScanner& scanner,
                                const Dataset& queries, bool use_domin,
                                ThreadPool* pool) {
  BlockContexts block;
  block.rows.reserve(queries.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    block.rows.push_back(queries.row(qi));
  }
  block.qctxs.resize(queries.size());
  StripedFor(pool, 0, queries.size(), 1, [&](size_t begin, size_t end) {
    for (size_t qi = begin; qi < end; ++qi) {
      block.qctxs[qi] = scanner.MakeQueryContext(block.rows[qi], use_domin);
    }
  });
  return block;
}

/// A stripe's share of a reverse k-ranks exact pass.
struct KRanksStripe {
  std::vector<std::vector<RankedWeight>> heaps;
  QueryStats stats;
  /// 1 when the heaps were seeded out of scan order (the τ engine's
  /// exactly-bracketed ranks): a later weight tying the k-th rank may then
  /// still win on id, so the heap bound keeps the +1.
  int64_t tie_slack = 0;
};

/// Reverse k-ranks exact pass over the weight batches starting at
/// `batch_starts`: ranks every slot (qi, w) with scan[qi * m + w] set (all
/// slots when `scan` is null) exactly up to min(caps[qi] + 1, the heap's
/// k-th rank) and pushes each rank found into heaps[qi] (each reserved to
/// k + 1; `seeded` when they already hold entries). caps[qi] must bound
/// the answer's k-th rank from above; a stripe whose heap holds k entries
/// lowers it, so pruning crosses stripes. Within an unseeded heap weights
/// arrive in id order, so a rank tying its k-th loses to it; every other
/// bound keeps the +1 so ties survive to the merge. The k smallest of a
/// multiset are insertion-order independent, so the merged heaps match a
/// serial scan.
void RankExactPass(const BlockedScanner& scanner, const BlockContexts& block,
                   const std::vector<size_t>& batch_starts,
                   const uint8_t* scan, size_t m, size_t k,
                   std::vector<std::atomic<int64_t>>& caps,
                   std::vector<std::vector<RankedWeight>>& heaps, bool seeded,
                   ThreadPool* pool, QueryStats* stats) {
  const size_t num_queries = block.rows.size();
  const size_t batch = scanner.weight_batch();
  const auto make_stripe = [num_queries, k] {
    KRanksStripe stripe;
    stripe.heaps.resize(num_queries);
    for (std::vector<RankedWeight>& heap : stripe.heaps) heap.reserve(k + 1);
    return stripe;
  };
  KRanksStripe out{std::move(heaps), {}, seeded ? 1 : 0};
  StripedFor(
      pool, 0, batch_starts.size(),
      StripeGrain(batch_starts.size(), pool, 1), out, make_stripe,
      [&](size_t bi_begin, size_t bi_end, KRanksStripe& stripe) {
        BlockedScratch scratch;
        std::vector<int64_t> thresholds;
        std::vector<int64_t> ranks;
        for (size_t bi = bi_begin; bi < bi_end; ++bi) {
          const size_t b = batch_starts[bi];
          const size_t e = std::min(b + batch, m);
          const size_t bl = e - b;
          thresholds.resize(num_queries * bl);
          ranks.resize(num_queries * bl);
          for (size_t qi = 0; qi < num_queries; ++qi) {
            const std::vector<RankedWeight>& heap = stripe.heaps[qi];
            int64_t threshold = caps[qi].load(std::memory_order_relaxed) + 1;
            if (heap.size() == k) {
              threshold =
                  std::min(threshold, heap.front().rank + stripe.tie_slack);
            }
            for (size_t i = 0; i < bl; ++i) {
              // Threshold 0 masks a slot at no scan cost (the dominator
              // count is always >= 0).
              thresholds[qi * bl + i] =
                  scan == nullptr || scan[qi * m + b + i] != 0 ? threshold
                                                               : 0;
            }
          }
          scanner.PrepareBatch(b, e, scratch);
          scanner.RankPreparedMulti(
              block.rows.data(), block.qctxs.data(), num_queries, b, e,
              thresholds.data(), ranks.data(), scratch,
              stats != nullptr ? &stripe.stats : nullptr);
          for (size_t qi = 0; qi < num_queries; ++qi) {
            std::vector<RankedWeight>& heap = stripe.heaps[qi];
            for (size_t i = 0; i < bl; ++i) {
              if (ranks[qi * bl + i] == kRankOverThreshold) continue;
              PushRankedWeight(heap, k,
                               RankedWeight{static_cast<VectorId>(b + i),
                                            ranks[qi * bl + i]});
            }
            if (heap.size() == k) AtomicMin(caps[qi], heap.front().rank);
          }
        }
      },
      [k](KRanksStripe& into, const KRanksStripe& stripe) {
        for (size_t qi = 0; qi < into.heaps.size(); ++qi) {
          for (const RankedWeight& entry : stripe.heaps[qi]) {
            PushRankedWeight(into.heaps[qi], k, entry);
          }
        }
        into.stats += stripe.stats;
      });
  if (stats != nullptr) *stats += out.stats;
  heaps = std::move(out.heaps);
}

/// A one-row query block: the single-query forms of the blocked and τ
/// engines run as the block call over it.
Dataset OneRow(ConstRow q) {
  Dataset block(q.size());
  block.AppendUnchecked(q);
  return block;
}

}  // namespace

GirIndex::GirIndex(const Dataset& points, const Dataset& weights,
                   GridIndex grid, ApproxVectors point_cells,
                   ApproxVectors weight_cells, GirOptions options)
    : points_(&points),
      weights_(&weights),
      grid_(std::move(grid)),
      point_cells_(std::move(point_cells)),
      weight_cells_(std::move(weight_cells)),
      options_(options) {}

Result<GirIndex> GirIndex::Build(const Dataset& points, const Dataset& weights,
                                 const GirOptions& options) {
  if (points.empty()) {
    return Status::InvalidArgument("point set must be non-empty");
  }
  // A zero range (all-zero data) degenerates; use 1 so the grid is valid
  // and every value lands in cell 0.
  const double point_range = std::max(points.MaxValue(), 1e-300);
  const double weight_range = std::max(weights.MaxValue(), 1e-300);
  auto pp = Partitioner::Uniform(options.partitions, point_range);
  if (!pp.ok()) return pp.status();
  auto wp = Partitioner::Uniform(options.partitions, weight_range);
  if (!wp.ok()) return wp.status();
  return BuildWithPartitioners(points, weights, std::move(pp).value(),
                               std::move(wp).value(), options);
}

Result<GirIndex> GirIndex::BuildWithPartitioners(
    const Dataset& points, const Dataset& weights,
    Partitioner point_partitioner, Partitioner weight_partitioner,
    const GirOptions& options) {
  if (points.empty()) {
    return Status::InvalidArgument("point set must be non-empty");
  }
  if (points.dim() != weights.dim()) {
    return Status::InvalidArgument(
        "dimension mismatch: points " + std::to_string(points.dim()) +
        " vs weights " + std::to_string(weights.dim()));
  }
  if (point_partitioner.boundaries().back() < points.MaxValue()) {
    return Status::InvalidArgument(
        "point partitioner range does not cover the dataset maximum");
  }
  if (weight_partitioner.boundaries().back() < weights.MaxValue()) {
    return Status::InvalidArgument(
        "weight partitioner range does not cover the dataset maximum");
  }
  GridIndex grid = GridIndex::Make(std::move(point_partitioner),
                                   std::move(weight_partitioner));
  ApproxVectors pa = ApproxVectors::Build(points, grid.point_partitioner());
  ApproxVectors wa = ApproxVectors::Build(weights, grid.weight_partitioner());
  GirIndex index(points, weights, std::move(grid), std::move(pa),
                 std::move(wa), options);
  if (options.scan_mode == ScanMode::kTauIndex) {
    auto tau = TauIndex::Build(points, weights, options.tau);
    if (!tau.ok()) return tau.status();
    index.tau_ = std::make_shared<const TauIndex>(std::move(tau).value());
  }
  if (options.use_block_max) {
    // Block size must match what the blocked engine will derive, or the
    // scanner refuses to arm the cursor (see BlockedScanner's ctor).
    auto bmx = BlockMaxIndex::Build(
        points, BlockedScanner::BlockPointsFor(points.dim()));
    if (!bmx.ok()) return bmx.status();
    index.bmx_ =
        std::make_shared<const BlockMaxIndex>(std::move(bmx).value());
  }
  return index;
}

Status GirIndex::AttachTauIndex(std::shared_ptr<const TauIndex> tau) {
  if (tau == nullptr) {
    return Status::InvalidArgument("tau index must be non-null");
  }
  if (tau->dim() != points_->dim() ||
      tau->num_points() != points_->size() ||
      tau->num_weights() != weights_->size()) {
    return Status::InvalidArgument(
        "tau index shape does not match this index's datasets");
  }
  tau_ = std::move(tau);
  return Status::OK();
}

Status GirIndex::AttachBlockMax(std::shared_ptr<const BlockMaxIndex> bmx) {
  if (bmx == nullptr) {
    return Status::InvalidArgument("block-max index must be non-null");
  }
  if (bmx->dim() != points_->dim() ||
      bmx->num_points() != points_->size() ||
      bmx->block_points() !=
          BlockedScanner::BlockPointsFor(points_->dim())) {
    return Status::InvalidArgument(
        "block-max index shape does not match this index's point blocks");
  }
  bmx_ = std::move(bmx);
  return Status::OK();
}

Result<GirIndex> GirIndex::Assemble(const Dataset& points,
                                    const Dataset& weights,
                                    Partitioner point_partitioner,
                                    Partitioner weight_partitioner,
                                    ApproxVectors point_cells,
                                    ApproxVectors weight_cells,
                                    const GirOptions& options) {
  if (points.empty()) {
    return Status::InvalidArgument("point set must be non-empty");
  }
  if (points.dim() != weights.dim()) {
    return Status::InvalidArgument("dimension mismatch between P and W");
  }
  if (point_cells.size() != points.size() ||
      point_cells.dim() != points.dim()) {
    return Status::InvalidArgument("point cells do not match the point set");
  }
  if (weight_cells.size() != weights.size() ||
      weight_cells.dim() != weights.dim()) {
    return Status::InvalidArgument(
        "weight cells do not match the weight set");
  }
  if (point_partitioner.boundaries().back() < points.MaxValue() ||
      weight_partitioner.boundaries().back() < weights.MaxValue()) {
    return Status::InvalidArgument(
        "partitioner ranges do not cover the datasets");
  }
  const size_t np = point_partitioner.partitions();
  const size_t nw = weight_partitioner.partitions();
  for (uint8_t cell : point_cells.cells()) {
    if (cell >= np) {
      return Status::Corruption("point cell id out of range");
    }
  }
  for (uint8_t cell : weight_cells.cells()) {
    if (cell >= nw) {
      return Status::Corruption("weight cell id out of range");
    }
  }
  GridIndex grid = GridIndex::Make(std::move(point_partitioner),
                                   std::move(weight_partitioner));
  return GirIndex(points, weights, std::move(grid), std::move(point_cells),
                  std::move(weight_cells), options);
}

ReverseTopKResult GirIndex::ReverseTopK(ConstRow q, size_t k,
                                        QueryStats* stats) const {
  // rank < 0 is unsatisfiable: answer empty without scanning (and without
  // counting scans), identically across every engine and batch shape.
  if (k == 0 || weights_->empty()) return {};
  if (options_.scan_mode != ScanMode::kWeightAtATime) {
    return std::move(ReverseTopKBatch(OneRow(q), k, stats)[0]);
  }
  GinContext ctx{points_, &point_cells_, &grid_, options_.bound_mode};
  DominBuffer domin(points_->size());
  DominBuffer* domin_ptr = options_.use_domin ? &domin : nullptr;
  GinScratch scratch;
  ReverseTopKResult result;
  const int64_t threshold = static_cast<int64_t>(k);
  for (size_t i = 0; i < weights_->size(); ++i) {
    const int64_t rank = GInTopK(ctx, weights_->row(i), weight_cells_.row(i),
                                 q, threshold, domin_ptr, scratch, stats);
    if (rank != kRankOverThreshold) {
      result.push_back(static_cast<VectorId>(i));
    }
    if (domin_ptr != nullptr && domin_ptr->count() >= threshold) {
      // Algorithm 2 lines 7-8: k dominating points place q outside every
      // preference's top-k. Weights i+1.. were never evaluated, so the
      // stats reflect only the i+1 scans that actually ran.
      if (stats != nullptr) stats->weights_evaluated += i + 1;
      return {};
    }
  }
  if (stats != nullptr) stats->weights_evaluated += weights_->size();
  return result;
}

ReverseKRanksResult GirIndex::ReverseKRanks(ConstRow q, size_t k,
                                            QueryStats* stats) const {
  if (k == 0 || weights_->empty()) return {};
  if (options_.scan_mode != ScanMode::kWeightAtATime) {
    return std::move(ReverseKRanksBatch(OneRow(q), k, stats)[0]);
  }
  GinContext ctx{points_, &point_cells_, &grid_, options_.bound_mode};
  DominBuffer domin(points_->size());
  DominBuffer* domin_ptr = options_.use_domin ? &domin : nullptr;
  GinScratch scratch;
  // Max-heap on (rank, weight_id); front is the worst retained entry.
  std::vector<RankedWeight> heap;
  heap.reserve(k + 1);
  const int64_t no_threshold = static_cast<int64_t>(points_->size()) + 1;
  for (size_t i = 0; i < weights_->size(); ++i) {
    // Weights are processed in increasing id order, so the heap top's rank
    // is a sound strict threshold (Algorithm 3's self-refining minRank).
    const int64_t threshold =
        (heap.size() == k && k > 0) ? heap.front().rank : no_threshold;
    const int64_t rank = GInTopK(ctx, weights_->row(i), weight_cells_.row(i),
                                 q, threshold, domin_ptr, scratch, stats);
    if (rank == kRankOverThreshold || k == 0) continue;
    RankedWeight entry{static_cast<VectorId>(i), rank};
    if (heap.size() < k) {
      heap.push_back(entry);
      std::push_heap(heap.begin(), heap.end());
    } else {
      std::pop_heap(heap.begin(), heap.end());
      heap.back() = entry;
      std::push_heap(heap.begin(), heap.end());
    }
  }
  if (stats != nullptr) stats->weights_evaluated += weights_->size();
  std::sort(heap.begin(), heap.end());
  return heap;
}

std::vector<ReverseTopKResult> GirIndex::ReverseTopKBatch(
    const Dataset& queries, size_t k, QueryStats* stats,
    ThreadPool* pool) const {
  const size_t num_queries = queries.size();
  const size_t m = weights_->size();
  const auto make_stripe = [num_queries] {
    return TopKStripe{std::vector<ReverseTopKResult>(num_queries), {}};
  };
  TopKStripe out = make_stripe();
  // Same degenerate-query policy as the per-query entry point: k == 0
  // answers empty with zero scans, so batch counters stay equal to the
  // sum of the equivalent per-query runs.
  if (num_queries == 0 || k == 0 || m == 0) return std::move(out.results);
  if (options_.scan_mode == ScanMode::kTauIndex && tau_ != nullptr &&
      tau_->CanAnswerTopK(k)) {
    // One tiled Q x W scoring sweep per stripe of W.
    std::vector<const double*> qrows(num_queries);
    for (size_t qi = 0; qi < num_queries; ++qi) {
      qrows[qi] = queries.row(qi).data();
    }
    ThreadPool* tau_pool = m >= kMinTauStripeWeights ? pool : nullptr;
    StripedFor(
        tau_pool, 0, m, StripeGrain(m, tau_pool, 1), out, make_stripe,
        [&](size_t begin, size_t end, TopKStripe& stripe) {
          tau_->TopKBatchRange(qrows.data(), num_queries, k, begin, end,
                               stripe.results.data());
        },
        MergeTopKStripe);
    if (stats != nullptr) {
      stats->weights_evaluated += m * num_queries;
      stats->inner_products += m * num_queries;
      stats->multiplications += m * num_queries * dim();
    }
    return std::move(out.results);
  }
  BlockedScanner scanner(*points_, point_cells_, *weights_, weight_cells_,
                         grid_, options_.bound_mode, {}, bmx_.get());
  const BlockContexts block =
      MakeBlockContexts(scanner, queries, options_.use_domin, pool);
  const int64_t threshold = static_cast<int64_t>(k);
  std::vector<uint8_t> alive(num_queries, 1);
  size_t alive_count = 0;
  for (size_t qi = 0; qi < num_queries; ++qi) {
    if (options_.use_domin && block.qctxs[qi].dominator_count >= threshold) {
      alive[qi] = 0;  // >= k dominators: empty answer, no scans needed
    } else {
      ++alive_count;
    }
  }
  if (alive_count == 0) return std::move(out.results);

  const size_t batch = scanner.weight_batch();
  StripedFor(
      pool, 0, m, StripeGrain(m, pool, batch), out, make_stripe,
      [&](size_t begin, size_t end, TopKStripe& stripe) {
        BlockedScratch scratch;
        std::vector<int64_t> thresholds;
        std::vector<int64_t> ranks;
        ForEachWeightBatch(begin, end, batch, [&](size_t b, size_t e) {
          // One table build per weight batch serves every query, and
          // RankPreparedMulti streams each point block (and accumulates
          // each weight's bounds) once for the whole query block.
          const size_t bl = e - b;
          thresholds.resize(num_queries * bl);
          ranks.resize(num_queries * bl);
          for (size_t qi = 0; qi < num_queries; ++qi) {
            // Threshold 0 masks a settled query's slots at no scan cost.
            std::fill_n(thresholds.begin() + qi * bl, bl,
                        alive[qi] != 0 ? threshold : 0);
          }
          scanner.PrepareBatch(b, e, scratch);
          scanner.RankPreparedMulti(
              block.rows.data(), block.qctxs.data(), num_queries, b, e,
              thresholds.data(), ranks.data(), scratch,
              stats != nullptr ? &stripe.stats : nullptr);
          for (size_t qi = 0; qi < num_queries; ++qi) {
            if (alive[qi] == 0) continue;
            for (size_t i = 0; i < bl; ++i) {
              if (ranks[qi * bl + i] != kRankOverThreshold) {
                stripe.results[qi].push_back(static_cast<VectorId>(b + i));
              }
            }
          }
        });
      },
      MergeTopKStripe);
  if (stats != nullptr) {
    *stats += out.stats;
    stats->weights_evaluated += m * alive_count;
  }
  return std::move(out.results);
}

std::vector<ReverseKRanksResult> GirIndex::ReverseKRanksBatch(
    const Dataset& queries, size_t k, QueryStats* stats,
    ThreadPool* pool) const {
  const size_t num_queries = queries.size();
  std::vector<ReverseKRanksResult> results(num_queries);
  if (num_queries == 0 || k == 0 || weights_->empty()) return results;
  if (options_.scan_mode == ScanMode::kTauIndex && tau_ != nullptr) {
    return TauReverseKRanksBatch(queries, k, pool, stats);
  }
  BlockedScanner scanner(*points_, point_cells_, *weights_, weight_cells_,
                         grid_, options_.bound_mode, {}, bmx_.get());
  const BlockContexts block =
      MakeBlockContexts(scanner, queries, options_.use_domin, pool);
  const size_t m = weights_->size();
  const size_t batch = scanner.weight_batch();
  std::vector<std::atomic<int64_t>> caps(num_queries);
  for (std::atomic<int64_t>& cap : caps) {
    cap.store(static_cast<int64_t>(points_->size()),
              std::memory_order_relaxed);
  }

  // Bracketing pre-pass (DESIGN.md §11): one bounds-only sweep brackets
  // every (query, weight) rank. The k-th smallest upper bound per query
  // caps that query's final k-th rank — at least k weights have exact
  // ranks no larger — so a weight whose lower bound exceeds the cap is
  // provably outside the answer and is masked from the exact pass, and
  // every surviving slot starts with a tight death threshold instead of
  // an unbounded one. Answer members always survive (rank <= cap < cap +
  // 1), so the final heaps match the per-query scan exactly.
  std::vector<uint8_t> scan;
  if (num_queries >= 2 && m > k) {
    std::vector<int64_t> rank_lb(num_queries * m);
    std::vector<int64_t> rank_ub(num_queries * m);
    QueryStats bracket_stats;
    StripedFor(
        pool, 0, m, StripeGrain(m, pool, batch), bracket_stats,
        [] { return QueryStats{}; },
        [&](size_t begin, size_t end, QueryStats& stripe_stats) {
          BlockedScratch scratch;
          ForEachWeightBatch(begin, end, batch, [&](size_t b, size_t e) {
            scanner.PrepareBatch(b, e, scratch);
            scanner.BracketRanksMulti(
                block.rows.data(), block.qctxs.data(), num_queries, b, e,
                rank_lb.data() + b, rank_ub.data() + b, m, scratch,
                stats != nullptr ? &stripe_stats : nullptr);
          });
        },
        [](QueryStats& into, const QueryStats& stripe_stats) {
          into += stripe_stats;
        });
    if (stats != nullptr) *stats += bracket_stats;
    scan.resize(num_queries * m);
    std::vector<int64_t> row(m);
    for (size_t qi = 0; qi < num_queries; ++qi) {
      std::copy_n(rank_ub.begin() + qi * m, m, row.begin());
      std::nth_element(row.begin(), row.begin() + (k - 1), row.end());
      caps[qi].store(row[k - 1], std::memory_order_relaxed);
      for (size_t w = 0; w < m; ++w) {
        scan[qi * m + w] = rank_lb[qi * m + w] <= row[k - 1] ? 1 : 0;
      }
    }
  }

  std::vector<size_t> batch_starts;
  for (size_t b = 0; b < m; b += batch) batch_starts.push_back(b);
  std::vector<std::vector<RankedWeight>> heaps(num_queries);
  for (std::vector<RankedWeight>& heap : heaps) heap.reserve(k + 1);
  RankExactPass(scanner, block, batch_starts,
                scan.empty() ? nullptr : scan.data(), m, k, caps, heaps,
                /*seeded=*/false, pool, stats);
  for (size_t qi = 0; qi < num_queries; ++qi) {
    std::sort(heaps[qi].begin(), heaps[qi].end());
    results[qi] = std::move(heaps[qi]);
  }
  if (stats != nullptr) stats->weights_evaluated += m * num_queries;
  return results;
}

std::vector<ReverseKRanksResult> GirIndex::TauReverseKRanksBatch(
    const Dataset& queries, size_t k, ThreadPool* pool,
    QueryStats* stats) const {
  const size_t num_queries = queries.size();
  std::vector<ReverseKRanksResult> results(num_queries);
  const TauIndex& tau = *tau_;
  const size_t m = weights_->size();
  const int64_t no_bound = static_cast<int64_t>(points_->size());

  // Pass 1 — one tiled Q x W sweep scores every query under every weight,
  // then the τ vector + histogram bracket each (query, weight) rank:
  // exact whenever rank < k_cap or the score pins to a single-count bin.
  std::vector<const double*> qrows(num_queries);
  for (size_t qi = 0; qi < num_queries; ++qi) {
    qrows[qi] = queries.row(qi).data();
  }
  std::vector<double> scores(num_queries * m);
  std::vector<int64_t> lo(num_queries * m);
  std::vector<int64_t> hi(num_queries * m);
  ThreadPool* tau_pool = m >= kMinTauStripeWeights ? pool : nullptr;
  StripedFor(tau_pool, 0, m, StripeGrain(m, tau_pool, 1),
             [&](size_t begin, size_t end) {
               tau.ScoreBlock(qrows.data(), num_queries, begin, end,
                              scores.data() + begin, m);
               for (size_t qi = 0; qi < num_queries; ++qi) {
                 for (size_t w = begin; w < end; ++w) {
                   const TauRankBounds bounds =
                       tau.BoundRank(w, scores[qi * m + w]);
                   lo[qi * m + w] = bounds.lo;
                   hi[qi * m + w] = bounds.hi;
                 }
               }
             });
  if (stats != nullptr) {
    stats->weights_evaluated += m * num_queries;
    stats->inner_products += m * num_queries;
    stats->multiplications += m * num_queries * dim();
  }

  // Per query: seed the heap with the exactly-bracketed ranks and cap the
  // fallback at (k-th upper bound, heap bound). The k-th smallest upper bound
  // caps the answer's k-th rank: at least k weights have rank <= kth_hi,
  // so any weight with lo > kth_hi is provably outside the answer (even
  // under (rank, id) tie-breaking, which only ever admits rank <= the
  // k-th smallest rank <= kth_hi).
  std::vector<std::vector<RankedWeight>> heaps(num_queries);
  std::vector<uint8_t> unresolved(num_queries * m, 0);
  std::vector<std::atomic<int64_t>> caps(num_queries);
  size_t unresolved_count = 0;
  std::vector<int64_t> tmp;
  for (size_t qi = 0; qi < num_queries; ++qi) {
    int64_t kth_hi = no_bound;
    if (m > k) {
      tmp.assign(hi.begin() + qi * m, hi.begin() + (qi + 1) * m);
      std::nth_element(tmp.begin(), tmp.begin() + (k - 1), tmp.end());
      kth_hi = tmp[k - 1];
    }
    std::vector<RankedWeight>& heap = heaps[qi];
    heap.reserve(k + 1);
    for (size_t w = 0; w < m; ++w) {
      if (lo[qi * m + w] > kth_hi) continue;
      if (lo[qi * m + w] == hi[qi * m + w]) {
        PushRankedWeight(
            heap, k, RankedWeight{static_cast<VectorId>(w), lo[qi * m + w]});
      } else {
        unresolved[qi * m + w] = 1;
        ++unresolved_count;
      }
    }
    caps[qi].store(
        heap.size() == k ? std::min(kth_hi, heap.front().rank) : kth_hi,
        std::memory_order_relaxed);
  }

  if (unresolved_count > 0) {
    // Pass 2 — one shared blocked fallback: every weight batch with any
    // unresolved (query, weight) slot runs once through
    // RankPreparedMulti; resolved slots are masked.
    BlockedScanner scanner(*points_, point_cells_, *weights_, weight_cells_,
                           grid_, options_.bound_mode, {}, bmx_.get());
    const BlockContexts block =
        MakeBlockContexts(scanner, queries, options_.use_domin, pool);
    const size_t batch = scanner.weight_batch();
    std::vector<size_t> batch_starts;
    for (size_t b = 0; b < m; b += batch) {
      const size_t e = std::min(b + batch, m);
      bool any = false;
      for (size_t qi = 0; qi < num_queries && !any; ++qi) {
        any = std::find(unresolved.begin() + qi * m + b,
                        unresolved.begin() + qi * m + e,
                        1) != unresolved.begin() + qi * m + e;
      }
      if (any) batch_starts.push_back(b);
    }
    RankExactPass(scanner, block, batch_starts, unresolved.data(), m, k,
                  caps, heaps, /*seeded=*/true, pool, stats);
  }

  for (size_t qi = 0; qi < num_queries; ++qi) {
    std::sort(heaps[qi].begin(), heaps[qi].end());
    results[qi] = std::move(heaps[qi]);
  }
  return results;
}

size_t GirIndex::MemoryBytes() const {
  size_t bytes = grid_.TableBytes() + point_cells_.MemoryBytes() +
                 weight_cells_.MemoryBytes();
  if (tau_ != nullptr) bytes += tau_->MemoryBytes();
  if (bmx_ != nullptr) bytes += bmx_->MemoryBytes();
  return bytes;
}

}  // namespace gir
