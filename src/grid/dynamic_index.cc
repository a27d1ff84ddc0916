#include "grid/dynamic_index.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <numeric>
#include <span>
#include <utility>

#include "core/simd.h"
#include "core/thread_pool.h"
#include "core/types.h"

namespace gir {

namespace {

/// Keeps the `cap` smallest entries by (rank, id): max-heap, front worst.
void PushRanked(std::vector<RankedWeight>& heap, size_t cap,
                const RankedWeight& entry) {
  if (heap.size() < cap) {
    heap.push_back(entry);
    std::push_heap(heap.begin(), heap.end());
  } else if (entry < heap.front()) {
    std::pop_heap(heap.begin(), heap.end());
    heap.back() = entry;
    std::push_heap(heap.begin(), heap.end());
  }
}

/// Minimum number of fallback weights before the dirty paths pay for the
/// blocked scanner's O(n·d) dominance pass. Below this the per-weight
/// bound-filtered scans are cheaper than building the Domin buffer; the
/// choice does not affect results.
constexpr size_t kDominMinWeights = 8;

/// Runs query(row, stats) for every row of a query block into results[i].
/// The dirty engines answer each row independently, so a pool stripes
/// whole rows.
template <typename Result, typename Query>
std::vector<Result> QueryRows(const Dataset& queries, QueryStats* stats,
                              ThreadPool* pool, Query&& query) {
  std::vector<Result> results(queries.size());
  QueryStats total;
  StripedFor(
      pool, 0, queries.size(), 1, total, [] { return QueryStats{}; },
      [&](size_t begin, size_t end, QueryStats& stripe_stats) {
        for (size_t qi = begin; qi < end; ++qi) {
          results[qi] = query(queries.row(qi),
                              stats != nullptr ? &stripe_stats : nullptr);
        }
      },
      [](QueryStats& into, const QueryStats& stripe_stats) {
        into += stripe_stats;
      });
  if (stats != nullptr) *stats += total;
  return results;
}

}  // namespace

struct DynamicGirIndex::QueryPrep {
  std::vector<double> fq;       // f_{w_h}(q) per weight handle
  std::vector<int64_t> added;   // live delta scores strictly below fq[h]
  std::vector<int64_t> removed;  // dead base scores strictly below fq[h]
  std::vector<uint8_t> known;   // added/removed computed for handle h
  std::vector<uint32_t> sel;    // SelectLessEqual candidate scratch
  std::vector<uint32_t> batch;  // handles whose corrections count together
};

// ---- Construction -------------------------------------------------------

Result<DynamicGirIndex> DynamicGirIndex::Build(
    const Dataset& points, const Dataset& weights,
    const DynamicIndexOptions& options) {
  if (points.empty()) {
    return Status::InvalidArgument("point set must be non-empty");
  }
  if (points.dim() != weights.dim()) {
    return Status::InvalidArgument("dimension mismatch between P and W");
  }
  if (!(options.compact_threshold > 0.0)) {
    return Status::InvalidArgument("compact_threshold must be positive");
  }
  DynamicGirIndex index;
  index.options_ = options;
  index.base_points_ = std::make_unique<Dataset>(points);
  index.base_weights_ = std::make_unique<Dataset>(weights);
  index.delta_points_ = std::make_unique<Dataset>(points.dim());
  index.delta_weights_ = std::make_unique<Dataset>(points.dim());
  index.base_point_alive_.Assign(points.size(), true);
  index.base_weight_alive_.Assign(weights.size(), true);
  Status st = index.Init(nullptr);
  if (!st.ok()) return st;
  return index;
}

Result<DynamicGirIndex> DynamicGirIndex::FromParts(
    const DynamicIndexOptions& options, uint64_t generation,
    Dataset base_points, Dataset base_weights,
    std::vector<uint8_t> base_point_alive,
    std::vector<uint8_t> base_weight_alive, Dataset delta_points,
    Dataset delta_weights, std::vector<uint8_t> delta_point_alive,
    std::vector<uint8_t> delta_weight_alive,
    std::shared_ptr<const TauIndex> tau) {
  if (base_points.empty()) {
    return Status::InvalidArgument("base point set must be non-empty");
  }
  const size_t dim = base_points.dim();
  if (base_weights.dim() != dim || delta_points.dim() != dim ||
      delta_weights.dim() != dim) {
    return Status::InvalidArgument("component dimension mismatch");
  }
  if (!(options.compact_threshold > 0.0)) {
    return Status::InvalidArgument("compact_threshold must be positive");
  }
  if (base_point_alive.size() != base_points.size() ||
      base_weight_alive.size() != base_weights.size() ||
      delta_point_alive.size() != delta_points.size() ||
      delta_weight_alive.size() != delta_weights.size()) {
    return Status::InvalidArgument("alive bitmap size mismatch");
  }
  for (const std::vector<uint8_t>* bitmap :
       {&base_point_alive, &base_weight_alive, &delta_point_alive,
        &delta_weight_alive}) {
    for (uint8_t b : *bitmap) {
      if (b > 1) return Status::InvalidArgument("alive bitmap byte not 0/1");
    }
  }
  DynamicGirIndex index;
  index.options_ = options;
  index.generation_ = generation;
  index.base_points_ = std::make_unique<Dataset>(std::move(base_points));
  index.base_weights_ = std::make_unique<Dataset>(std::move(base_weights));
  index.delta_points_ = std::make_unique<Dataset>(std::move(delta_points));
  index.delta_weights_ = std::make_unique<Dataset>(std::move(delta_weights));
  index.base_point_alive_ = RankSelectBitmap::FromBytes(base_point_alive);
  index.base_weight_alive_ = RankSelectBitmap::FromBytes(base_weight_alive);
  index.delta_point_alive_ = RankSelectBitmap::FromBytes(delta_point_alive);
  index.delta_weight_alive_ = RankSelectBitmap::FromBytes(delta_weight_alive);
  Status st = index.Init(std::move(tau));
  if (!st.ok()) return st;
  // A live delta weight above the generation's weight grid range cannot
  // exist in a saved index (such inserts compact immediately) and would
  // make the paper-mode grid bounds unsound.
  const double top =
      index.gir_->grid().weight_partitioner().boundaries().back();
  for (size_t j = 0; j < index.delta_weights_->size(); ++j) {
    if (!index.delta_weight_alive_.Get(j)) continue;
    ConstRow row = index.delta_weights_->row(j);
    for (size_t i = 0; i < row.size(); ++i) {
      if (row[i] > top) {
        return Status::InvalidArgument(
            "live delta weight exceeds the weight grid range");
      }
    }
  }
  return index;
}

Status DynamicGirIndex::Init(std::shared_ptr<const TauIndex> tau) {
  GirOptions gir_options = options_.gir;
  const bool want_tau = gir_options.scan_mode == ScanMode::kTauIndex;
  if (tau != nullptr && want_tau) {
    // A persisted τ-index replaces the expensive build-time sweep; Build
    // must not run it a second time.
    gir_options.scan_mode = ScanMode::kBlocked;
  }
  auto built = GirIndex::Build(*base_points_, *base_weights_, gir_options);
  if (!built.ok()) return built.status();
  gir_.emplace(std::move(built).value());
  if (tau != nullptr && want_tau) {
    Status st = gir_->AttachTauIndex(std::move(tau));
    if (!st.ok()) return st;
    gir_->set_scan_mode(ScanMode::kTauIndex);
  }

  const size_t nbp = base_points_->size();
  const size_t ndp = delta_points_->size();
  const size_t nbw = base_weights_->size();
  const size_t ndw = delta_weights_->size();
  dead_base_points_ = base_point_alive_.zeros();
  dead_base_weights_ = base_weight_alive_.zeros();
  dead_delta_points_ = delta_point_alive_.zeros();
  dead_delta_weights_ = delta_weight_alive_.zeros();

  live_point_ids_.clear();
  live_point_ids_.reserve(nbp + ndp);
  for (size_t i = 0; i < nbp; ++i) {
    if (base_point_alive_.Get(i)) {
      live_point_ids_.push_back(static_cast<uint32_t>(i));
    }
  }
  for (size_t j = 0; j < ndp; ++j) {
    if (delta_point_alive_.Get(j)) {
      live_point_ids_.push_back(static_cast<uint32_t>(nbp + j));
    }
  }
  live_weight_ids_.clear();
  live_weight_ids_.reserve(nbw + ndw);
  for (size_t i = 0; i < nbw; ++i) {
    if (base_weight_alive_.Get(i)) {
      live_weight_ids_.push_back(static_cast<uint32_t>(i));
    }
  }
  for (size_t j = 0; j < ndw; ++j) {
    if (delta_weight_alive_.Get(j)) {
      live_weight_ids_.push_back(static_cast<uint32_t>(nbw + j));
    }
  }
  RebuildLiveWeightMap();
  RebuildWeightColumns();
  RebuildDeltaWeightCells();

  // Fill re-creates each store from empty, so a compaction releases the
  // whole old delta's score memory.
  const size_t mh = num_weight_handles();
  const auto score = [this](uint32_t p, double* out) {
    ScorePointUnderWeights(PointRowOfHandle(p), out);
  };
  std::vector<uint32_t> dead_points;
  for (size_t i = 0; i < nbp; ++i) {
    if (!base_point_alive_.Get(i)) {
      dead_points.push_back(static_cast<uint32_t>(i));
    }
  }
  dead_runs_.Fill(mh, dead_points, score);
  std::vector<uint32_t> live_delta_points;
  for (size_t j = 0; j < ndp; ++j) {
    if (delta_point_alive_.Get(j)) {
      live_delta_points.push_back(static_cast<uint32_t>(nbp + j));
    }
  }
  delta_runs_.Fill(mh, live_delta_points, score);
  erased_runs_.Reset(mh);
  point_scores_ = std::vector<double>(mh);
  delta_weight_base_scores_.assign(ndw, CompressedScoreArray());
  for (uint32_t h : live_weight_ids_) {
    if (h < nbw) continue;
    ConstRow wrow = delta_weights_->row(h - nbw);
    std::vector<double> base_row;
    base_row.reserve(nbp);
    for (size_t i = 0; i < nbp; ++i) {
      base_row.push_back(InnerProduct(wrow, base_points_->row(i)));
    }
    std::sort(base_row.begin(), base_row.end());
    delta_weight_base_scores_[h - nbw] =
        CompressedScoreArray::FromSorted(std::move(base_row));
  }
  SeedLiveTau();
  return Status::OK();
}

// ---- Internal plumbing --------------------------------------------------

bool DynamicGirIndex::weight_handle_alive(size_t h) const {
  const size_t nbw = base_weights_->size();
  return h < nbw ? base_weight_alive_.Get(h)
                 : delta_weight_alive_.Get(h - nbw);
}

ConstRow DynamicGirIndex::PointRowOfHandle(size_t h) const {
  const size_t nbp = base_points_->size();
  return h < nbp ? base_points_->row(h) : delta_points_->row(h - nbp);
}

ConstRow DynamicGirIndex::WeightRowOfHandle(size_t h) const {
  const size_t nbw = base_weights_->size();
  return h < nbw ? base_weights_->row(h) : delta_weights_->row(h - nbw);
}

void DynamicGirIndex::ScoreWeightHandles(ConstRow q, double* fq) const {
  const size_t mh = num_weight_handles();
  if (mh == 0) return;
  if (q.size() == 0) {
    std::fill(fq, fq + mh, 0.0);
    return;
  }
  // The first dimension writes instead of accumulating, so callers need
  // not pre-zero `fq`. Bit-identity to the accumulate-from-zero kernels
  // holds: 0.0 + x == x for every product except a sign-of-zero flip,
  // which is invisible to the value comparisons these scores feed.
  const double* col0 = wcol_.data();
  const double q0 = q[0];
  for (size_t h = 0; h < mh; ++h) fq[h] = col0[h] * q0;
  for (size_t i = 1; i < q.size(); ++i) {
    simd::AccumulateScaledDoubles(wcol_.data() + i * wcol_stride_, q[i], fq,
                                  mh);
  }
}

void DynamicGirIndex::ScorePointUnderWeights(ConstRow p,
                                             double* scores) const {
  ScoreWeightHandles(p, scores);
}

void DynamicGirIndex::RebuildLiveWeightMap() {
  weight_handle_to_live_.assign(num_weight_handles(),
                                static_cast<VectorId>(-1));
  for (size_t li = 0; li < live_weight_ids_.size(); ++li) {
    weight_handle_to_live_[live_weight_ids_[li]] =
        static_cast<VectorId>(li);
  }
}

void DynamicGirIndex::RebuildWeightColumns() {
  const size_t nbw = base_weights_->size();
  const size_t ndw = delta_weights_->size();
  const size_t d = dim();
  wcol_stride_ = nbw + ndw;
  wcol_.assign(d * wcol_stride_, 0.0);
  for (size_t h = 0; h < nbw; ++h) {
    ConstRow row = base_weights_->row(h);
    for (size_t i = 0; i < d; ++i) wcol_[i * wcol_stride_ + h] = row[i];
  }
  for (size_t j = 0; j < ndw; ++j) {
    ConstRow row = delta_weights_->row(j);
    for (size_t i = 0; i < d; ++i) {
      wcol_[i * wcol_stride_ + nbw + j] = row[i];
    }
  }
}

void DynamicGirIndex::RebuildDeltaWeightCells() {
  delta_weight_cells_.emplace(
      ApproxVectors::Build(*delta_weights_, gir_->grid().weight_partitioner()));
}

void DynamicGirIndex::LiveDeltaRow(size_t h, std::vector<double>* out) const {
  delta_runs_.SortedRow(h, out);
  if (erased_runs_.empty()) return;
  // Erased scores are a sub-multiset of the inserted ones (DeletePoint
  // checks each against delta_runs_ first), so the multiset difference
  // removes exactly one occurrence per erased point.
  std::vector<double> erased;
  erased_runs_.SortedRow(h, &erased);
  std::vector<double> live;
  live.reserve(out->size() - erased.size());
  std::set_difference(out->begin(), out->end(), erased.begin(), erased.end(),
                      std::back_inserter(live));
  *out = std::move(live);
}

void DynamicGirIndex::SeedLiveTau() {
  live_tau_.clear();
  live_tau_valid_.clear();
  live_tau_cap_ = 0;
  delta_live_tau_.assign(delta_weights_->size(), {});
  delta_live_tau_valid_.assign(delta_weights_->size(), 0);
  const TauIndex* tau = gir_->tau_index();
  if (tau == nullptr) return;
  const size_t nbw = base_weights_->size();
  live_tau_cap_ = tau->k_cap();
  if (live_tau_cap_ == 0 || nbw == 0) {
    live_tau_cap_ = 0;
    return;
  }
  live_tau_.assign(live_tau_cap_ * nbw, 0.0);
  live_tau_valid_.assign(nbw, 0);
  std::vector<double> head;
  head.reserve(live_tau_cap_);
  std::vector<double> dead;
  std::vector<double> delta;
  for (size_t h = 0; h < nbw; ++h) {
    if (!base_weight_alive_.Get(h)) continue;
    dead_runs_.SortedRow(h, &dead);
    // Known prefix of the live score multiset under handle h: the τ
    // column minus the tombstoned occurrences, merged with the live
    // delta scores. Every untracked base score is >= cut (the last τ
    // entry), so exactly the merged entries <= cut are trustworthy live
    // order statistics.
    const double cut = tau->Threshold(h, live_tau_cap_);
    head.clear();
    size_t di = 0;
    bool consistent = true;
    for (size_t t = 1; t <= live_tau_cap_; ++t) {
      const double v = tau->Threshold(h, t);
      if (di < dead.size() && dead[di] < v) {
        // A tombstoned score below the τ horizon must be one of its
        // occurrences; a miss means the stored corrections and the τ
        // build disagree bit-wise — leave the handle on the slow path.
        consistent = false;
        break;
      }
      if (di < dead.size() && dead[di] == v) {
        ++di;
        continue;
      }
      head.push_back(v);
    }
    if (!consistent || (di < dead.size() && dead[di] < cut)) continue;
    LiveDeltaRow(h, &delta);
    size_t bi = 0;
    size_t gi = 0;
    uint32_t out = 0;
    while (out < live_tau_cap_) {
      double v;
      if (bi < head.size() &&
          (gi >= delta.size() || head[bi] <= delta[gi])) {
        v = head[bi++];
      } else if (gi < delta.size()) {
        v = delta[gi++];
      } else {
        break;
      }
      if (v > cut) break;
      live_tau_[out * nbw + h] = v;
      ++out;
    }
    live_tau_valid_[h] = out;
  }
  for (size_t j = 0; j < delta_weights_->size(); ++j) {
    if (delta_weight_alive_.Get(j)) SeedDeltaHead(j);
  }
  live_tau_min_valid_ = static_cast<uint32_t>(live_tau_cap_);
  for (uint32_t h : live_weight_ids_) {
    const uint32_t v = h < nbw ? live_tau_valid_[h]
                               : delta_live_tau_valid_[h - nbw];
    live_tau_min_valid_ = std::min(live_tau_min_valid_, v);
  }
}

void DynamicGirIndex::SeedDeltaHead(size_t j) {
  if (live_tau_cap_ == 0) return;
  const size_t h = base_weights_->size() + j;
  const CompressedScoreArray& base = delta_weight_base_scores_[j];
  std::vector<double> dead;
  std::vector<double> delta;
  dead_runs_.SortedRow(h, &dead);
  LiveDeltaRow(h, &delta);
  // Unlike the base handles there is no τ horizon here: `base` holds
  // every base score, so the first live_tau_cap_ live order statistics
  // of (base minus dead) merged with delta are exact. The difference
  // walk still demands bit-exact tombstone matches (the arrays come
  // from the same kernels, so a miss means corrupted bookkeeping) and
  // leaves the head empty — slow path — rather than trusting it. The
  // base scores stream out of the compressed array through a forward
  // cursor: the merge needs only the head, never a random access.
  std::vector<double>& row = delta_live_tau_[j];
  row.assign(live_tau_cap_, 0.0);
  uint32_t out = 0;
  CompressedScoreArray::Cursor bc = base.begin();
  size_t di = 0;
  size_t gi = 0;
  while (out < live_tau_cap_) {
    while (bc.valid() && di < dead.size() && dead[di] == bc.value()) {
      ++di;
      bc.Next();
    }
    if (di < dead.size() && bc.valid() && dead[di] < bc.value()) {
      delta_live_tau_valid_[j] = 0;
      return;
    }
    if (bc.valid() && (gi >= delta.size() || bc.value() <= delta[gi])) {
      row[out++] = bc.value();
      bc.Next();
    } else if (gi < delta.size()) {
      row[out++] = delta[gi++];
    } else {
      break;
    }
  }
  delta_live_tau_valid_[j] = out;
}

void DynamicGirIndex::LiveTauInsert(size_t h, double s) {
  if (live_tau_cap_ == 0) return;
  const size_t nbw = base_weights_->size();
  double* col;
  size_t stride;
  uint32_t* valid;
  if (h < nbw) {
    col = live_tau_.data() + h;
    stride = nbw;
    valid = &live_tau_valid_[h];
  } else {
    col = delta_live_tau_[h - nbw].data();
    stride = 1;
    valid = &delta_live_tau_valid_[h - nbw];
  }
  const uint32_t v = *valid;
  if (v == 0 || s > col[(v - 1) * stride]) return;
  // s enters the tracked head: strided upper-bound, shift the column tail
  // down one row, and grow the valid length if there is capacity (the
  // displaced entry was the (v+1)-th smallest, so knowledge extends).
  size_t lo = 0;
  size_t hi = v;
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (col[mid * stride] <= s) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  const uint32_t nv =
      std::min<uint32_t>(v + 1, static_cast<uint32_t>(live_tau_cap_));
  if (lo >= nv) return;  // at capacity and s is the largest — falls off
  for (size_t t = nv - 1; t > lo; --t) {
    col[t * stride] = col[(t - 1) * stride];
  }
  col[lo * stride] = s;
  *valid = nv;
}

void DynamicGirIndex::LiveTauErase(size_t h, double s) {
  if (live_tau_cap_ == 0) return;
  const size_t nbw = base_weights_->size();
  double* col;
  size_t stride;
  uint32_t* valid;
  if (h < nbw) {
    col = live_tau_.data() + h;
    stride = nbw;
    valid = &live_tau_valid_[h];
  } else {
    col = delta_live_tau_[h - nbw].data();
    stride = 1;
    valid = &delta_live_tau_valid_[h - nbw];
  }
  const uint32_t v = *valid;
  if (v == 0 || s > col[(v - 1) * stride]) return;
  size_t lo = 0;
  size_t hi = v;
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (col[mid * stride] < s) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo >= v || col[lo * stride] != s) {
    // A live score below the horizon must be tracked; degrade to the
    // correction path rather than serve a stale threshold.
    *valid = 0;
    live_tau_min_valid_ = 0;
    return;
  }
  for (size_t t = lo; t + 1 < v; ++t) {
    col[t * stride] = col[(t + 1) * stride];
  }
  *valid = v - 1;
  live_tau_min_valid_ = std::min(live_tau_min_valid_, v - 1);
}

uint32_t DynamicGirIndex::LiveTauPositionBound(size_t h, double s) const {
  if (live_tau_cap_ == 0) return 1;
  const size_t nbw = base_weights_->size();
  const double* col;
  size_t stride;
  uint32_t v;
  if (h < nbw) {
    col = live_tau_.data() + h;
    stride = nbw;
    v = live_tau_valid_[h];
  } else {
    col = delta_live_tau_[h - nbw].data();
    stride = 1;
    v = delta_live_tau_valid_[h - nbw];
  }
  if (v == 0) return 1;
  // Beyond the tracked horizon every head entry is < s, so at least v
  // scores precede it. Within it, the head holds every live score < s
  // (it is a prefix of the sorted live multiset), so the strided
  // lower-bound index is the exact strict-below count.
  if (s > col[(v - 1) * stride]) return v + 1;
  size_t lo = 0;
  size_t hi = v;
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (col[mid * stride] < s) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return static_cast<uint32_t>(lo) + 1;
}

void DynamicGirIndex::CopyLiveTauHead(size_t h, std::vector<double>* out) const {
  out->clear();
  if (live_tau_cap_ == 0) return;
  const size_t nbw = base_weights_->size();
  const double* col;
  size_t stride;
  uint32_t v;
  if (h < nbw) {
    col = live_tau_.data() + h;
    stride = nbw;
    v = live_tau_valid_[h];
  } else {
    col = delta_live_tau_[h - nbw].data();
    stride = 1;
    v = delta_live_tau_valid_[h - nbw];
  }
  out->reserve(v);
  for (uint32_t t = 0; t < v; ++t) out->push_back(col[t * stride]);
}

// ---- Mutations ----------------------------------------------------------

Status DynamicGirIndex::InsertPoint(ConstRow p) {
  Status st = delta_points_->Append(p);
  if (!st.ok()) return st;
  delta_point_alive_.PushBack(true);
  const size_t handle = base_points_->size() + delta_points_->size() - 1;
  // Out-of-range point values are harmless: delta points are only ever
  // scored exactly (never through the grid), and the next compaction's
  // fresh partitioners absorb them.
  double* sp = point_scores_.data();
  ScorePointUnderWeights(p, sp);
  delta_runs_.Append(static_cast<uint32_t>(handle), sp);
  uint32_t band = std::numeric_limits<uint32_t>::max();
  for (uint32_t h : live_weight_ids_) {
    LiveTauInsert(h, sp[h]);
    // Post-insert head: the new score is tracked when it is within the
    // horizon, so the position bound is exact there (DESIGN.md §16).
    band = std::min(band, LiveTauPositionBound(h, sp[h]));
  }
  last_point_band_ = band;
  live_point_ids_.push_back(static_cast<uint32_t>(handle));
  return MaybeAutoCompact();
}

Status DynamicGirIndex::DeletePoint(VectorId live_id) {
  if (live_id >= live_point_ids_.size()) {
    return Status::InvalidArgument("point live id out of range");
  }
  const size_t h = live_point_ids_[live_id];
  const size_t nbp = base_points_->size();
  double* sp = point_scores_.data();
  ScorePointUnderWeights(PointRowOfHandle(h), sp);
  const uint32_t point = static_cast<uint32_t>(h);
  if (h < nbp) {
    base_point_alive_.Set(h, false);
    ++dead_base_points_;
    dead_runs_.Append(point, sp);
  } else {
    // The erased scores must be the ones inserted: a miss means the
    // stored corrections and the scoring kernel disagree bit-wise.
    if (!delta_runs_.Holds(point, sp)) {
      return Status::Internal("delta score bookkeeping mismatch");
    }
    delta_point_alive_.Set(h - nbp, false);
    ++dead_delta_points_;
    if (!delta_runs_.EraseBuffered(point)) erased_runs_.Append(point, sp);
  }
  uint32_t band = std::numeric_limits<uint32_t>::max();
  for (uint32_t w : live_weight_ids_) {
    // Pre-erase head: the dying score is still tracked, so its live
    // position reads off the head exactly as for an insert.
    band = std::min(band, LiveTauPositionBound(w, sp[w]));
    LiveTauErase(w, sp[w]);
  }
  last_point_band_ = band;
  live_point_ids_.erase(live_point_ids_.begin() + live_id);
  return MaybeAutoCompact();
}

Status DynamicGirIndex::InsertWeight(ConstRow w) {
  if (w.size() != dim()) {
    return Status::InvalidArgument("weight width does not match dim");
  }
  // The dominance pre-count (Domin) is sound only for preference vectors;
  // enforce the same tolerance ValidateWeightDataset uses.
  Status vst = ValidateWeight(w, 1e-6);
  if (!vst.ok()) return vst;
  Status st = delta_weights_->Append(w);
  if (!st.ok()) return st;
  delta_weight_alive_.PushBack(true);
  const size_t h = base_weights_->size() + delta_weights_->size() - 1;
  ConstRow wrow = delta_weights_->row(delta_weights_->size() - 1);
  const auto score_of = [&](uint32_t p) {
    return InnerProduct(wrow, PointRowOfHandle(p));
  };
  dead_runs_.AddHandle(score_of);
  delta_runs_.AddHandle(score_of);
  erased_runs_.AddHandle(score_of);
  point_scores_.resize(num_weight_handles());
  // One exact pass over every base row: the full sorted array makes
  // rank_base(w, q) a binary search at query time (no blocked fallback
  // for delta weights). The array is immutable once sorted, so it is
  // stored delta-coded.
  std::vector<double> base_row;
  base_row.reserve(base_points_->size());
  for (size_t i = 0; i < base_points_->size(); ++i) {
    base_row.push_back(InnerProduct(wrow, base_points_->row(i)));
  }
  std::sort(base_row.begin(), base_row.end());
  delta_weight_base_scores_.push_back(
      CompressedScoreArray::FromSorted(std::move(base_row)));
  delta_live_tau_.emplace_back();
  delta_live_tau_valid_.push_back(0);
  SeedDeltaHead(delta_weights_->size() - 1);
  if (live_tau_cap_ != 0) {
    live_tau_min_valid_ =
        std::min(live_tau_min_valid_, delta_live_tau_valid_.back());
  }
  live_weight_ids_.push_back(static_cast<uint32_t>(h));
  RebuildLiveWeightMap();
  RebuildWeightColumns();
  RebuildDeltaWeightCells();
  // A weight value above the grid's top boundary would be clamped by the
  // cell quantization, making the paper-mode bounds unsound — fold the
  // delta into a fresh generation whose partitioners cover it.
  const double top = gir_->grid().weight_partitioner().boundaries().back();
  bool force_compact = false;
  for (size_t i = 0; i < w.size(); ++i) {
    if (w[i] > top) force_compact = true;
  }
  Status cst = force_compact ? Compact() : MaybeAutoCompact();
  // Snapshot the new weight's live-τ head for the server's result-cache
  // probe — after any compaction, so the head matches the state a query
  // would now observe (the new weight is the last live weight either
  // way).
  last_weight_head_.clear();
  if (cst.ok() && !live_weight_ids_.empty()) {
    CopyLiveTauHead(live_weight_ids_.back(), &last_weight_head_);
  }
  return cst;
}

Status DynamicGirIndex::DeleteWeight(VectorId live_id) {
  if (live_id >= live_weight_ids_.size()) {
    return Status::InvalidArgument("weight live id out of range");
  }
  const size_t h = live_weight_ids_[live_id];
  const size_t nbw = base_weights_->size();
  if (h < nbw) {
    base_weight_alive_.Set(h, false);
    ++dead_base_weights_;
  } else {
    delta_weight_alive_.Set(h - nbw, false);
    ++dead_delta_weights_;
  }
  // The handle's rows in the score stores stay until the next
  // compaction; nothing reads them once it is dead.
  if (h >= nbw) {
    delta_weight_base_scores_[h - nbw] = CompressedScoreArray();
    delta_live_tau_[h - nbw].clear();
    delta_live_tau_[h - nbw].shrink_to_fit();
    if (live_tau_cap_ != 0) delta_live_tau_valid_[h - nbw] = 0;
  } else if (live_tau_cap_ != 0) {
    live_tau_valid_[h] = 0;  // dead handles keep no live thresholds
  }
  live_weight_ids_.erase(live_weight_ids_.begin() + live_id);
  RebuildLiveWeightMap();
  return MaybeAutoCompact();
}

Status DynamicGirIndex::Compact() {
  if (!dirty()) return Status::OK();
  if (live_point_ids_.empty()) {
    return Status::InvalidArgument(
        "cannot compact with no live points (an index over an empty P "
        "cannot be built)");
  }
  Dataset live_points = LivePoints();
  Dataset live_weights = LiveWeights();
  *base_points_ = std::move(live_points);
  *base_weights_ = std::move(live_weights);
  *delta_points_ = Dataset(base_points_->dim());
  *delta_weights_ = Dataset(base_points_->dim());
  base_point_alive_.Assign(base_points_->size(), true);
  base_weight_alive_.Assign(base_weights_->size(), true);
  delta_point_alive_.Assign(0, false);
  delta_weight_alive_.Assign(0, false);
  ++generation_;
  return Init(nullptr);
}

Status DynamicGirIndex::MaybeAutoCompact() {
  if (!options_.auto_compact) return Status::OK();
  if (live_point_ids_.empty()) return Status::OK();
  if (ChurnFraction() <= options_.compact_threshold) return Status::OK();
  return Compact();
}

// ---- Introspection ------------------------------------------------------

bool DynamicGirIndex::dirty() const {
  return dead_base_points_ + dead_base_weights_ + delta_points_->size() +
             delta_weights_->size() >
         0;
}

double DynamicGirIndex::ChurnFraction() const {
  const double churn =
      static_cast<double>(delta_points_->size() + delta_weights_->size() +
                          dead_base_points_ + dead_base_weights_);
  const double base =
      static_cast<double>(base_points_->size() + base_weights_->size());
  return base > 0.0 ? churn / base : 0.0;
}

DynamicGirIndex::MemoryBreakdown DynamicGirIndex::MemoryBytes() const {
  MemoryBreakdown mb;
  const TauIndex* tau = gir_->tau_index();
  const BlockMaxIndex* bmx = gir_->block_max().get();
  mb.tau_bytes = tau != nullptr ? tau->MemoryBytes() : 0;
  mb.block_max_bytes = bmx != nullptr ? bmx->MemoryBytes() : 0;
  // GirIndex::MemoryBytes folds τ and block-max in; peel them back out so
  // the sections are disjoint and sum to the engine total.
  mb.base_bytes = gir_->MemoryBytes() - mb.tau_bytes - mb.block_max_bytes;
  mb.bitmap_bytes = base_point_alive_.MemoryBytes() +
                    base_weight_alive_.MemoryBytes() +
                    delta_point_alive_.MemoryBytes() +
                    delta_weight_alive_.MemoryBytes();
  mb.delta_bytes = (delta_points_->size() + delta_weights_->size()) * dim() *
                   sizeof(double);
  mb.delta_bytes += dead_runs_.MemoryBytes() + delta_runs_.MemoryBytes() +
                    erased_runs_.MemoryBytes() +
                    point_scores_.capacity() * sizeof(double);
  for (const CompressedScoreArray& a : delta_weight_base_scores_) {
    mb.delta_bytes += a.MemoryBytes();
  }
  mb.delta_bytes += live_tau_.capacity() * sizeof(double);
  for (const std::vector<double>& v : delta_live_tau_) {
    mb.delta_bytes += v.capacity() * sizeof(double);
  }
  return mb;
}

Dataset DynamicGirIndex::LivePoints() const {
  Dataset out(dim());
  out.Reserve(live_point_ids_.size());
  for (uint32_t h : live_point_ids_) out.AppendUnchecked(PointRowOfHandle(h));
  return out;
}

Dataset DynamicGirIndex::LiveWeights() const {
  Dataset out(dim());
  out.Reserve(live_weight_ids_.size());
  for (uint32_t h : live_weight_ids_) {
    out.AppendUnchecked(WeightRowOfHandle(h));
  }
  return out;
}

// ---- Query machinery ----------------------------------------------------

void DynamicGirIndex::PrepareQuery(ConstRow q, QueryPrep& prep,
                                   QueryStats* stats) const {
  const size_t mh = num_weight_handles();
  prep.fq.resize(mh);
  prep.known.clear();  // re-arm the lazy corrections for a reused prep
  ScoreWeightHandles(q, prep.fq.data());
  if (stats != nullptr) {
    stats->weights_evaluated += live_weight_ids_.size();
    stats->inner_products += mh;
    stats->multiplications += mh * dim();
  }
}

void DynamicGirIndex::EnsureCorrections(
    QueryPrep& prep, std::span<const uint32_t> handles) const {
  if (prep.known.empty()) {
    // Correction arrays materialize on first demand: queries decided
    // entirely by the live τ heads never pay these allocations.
    const size_t mh = num_weight_handles();
    prep.added.assign(mh, 0);
    prep.removed.assign(mh, 0);
    prep.known.assign(mh, 0);
  }
  for (uint32_t h : handles) {
    prep.added[h] = 0;
    prep.removed[h] = 0;
    prep.known[h] = 1;
  }
  const double* fq = prep.fq.data();
  dead_runs_.AccumulateCountsBelow(handles, fq, 1, prep.removed.data());
  delta_runs_.AccumulateCountsBelow(handles, fq, 1, prep.added.data());
  erased_runs_.AccumulateCountsBelow(handles, fq, -1, prep.added.data());
}

ReverseTopKResult DynamicGirIndex::DirtyReverseTopK(ConstRow q, size_t k,
                                                    QueryStats* stats) const {
  ReverseTopKResult result;
  const size_t live_w = live_weight_ids_.size();
  if (k == 0 || live_w == 0) return result;
  if (k > live_point_ids_.size()) {
    // rank_live(w, q) <= |live P| < k for every live weight.
    result.resize(live_w);
    std::iota(result.begin(), result.end(), 0);
    return result;
  }
  const size_t nbp = base_points_->size();
  const size_t nbw = base_weights_->size();
  // Per-thread scratch: the dirty engines are called per query from both
  // serial and pool-striped batch calls, and reuse keeps the scoring
  // buffer's allocation out of the per-query cost.
  static thread_local QueryPrep prep;
  PrepareQuery(q, prep, stats);
  if (live_tau_cap_ != 0 && k <= live_tau_min_valid_) {
    // Every live handle's patched head covers this k, so the whole
    // classification is the clean τ engine's kernel: one SIMD
    // select-less-equal of the query scores against the k-th live
    // threshold row. Dead base handles may be spuriously selected (their
    // rows are stale) and are dropped by the live-id lookup; the few
    // delta heads are row-contiguous scalar tests. live_weight_ids_ is
    // ascending (inserts append the largest handle), so emitting base
    // candidates then delta handles keeps the result sorted.
    prep.sel.resize(nbw);
    const size_t cnt = simd::SelectLessEqual(
        prep.fq.data(), live_tau_.data() + (k - 1) * nbw, nbw,
        prep.sel.data());
    for (size_t i = 0; i < cnt; ++i) {
      const VectorId li = weight_handle_to_live_[prep.sel[i]];
      if (li != static_cast<VectorId>(-1)) result.push_back(li);
    }
    const size_t first_delta =
        std::lower_bound(live_weight_ids_.begin(), live_weight_ids_.end(),
                         static_cast<uint32_t>(nbw)) -
        live_weight_ids_.begin();
    for (size_t li = first_delta; li < live_w; ++li) {
      const size_t h = live_weight_ids_[li];
      if (prep.fq[h] <= delta_live_tau_[h - nbw][k - 1]) {
        result.push_back(static_cast<VectorId>(li));
      }
    }
    return result;
  }
  const TauIndex* tau = gir_->tau_index();
  // Without τ every live weight needs its corrections: count them in
  // one batched pass per store rather than one search chain each.
  if (tau == nullptr) EnsureCorrections(prep, live_weight_ids_);
  const int64_t k_cap =
      tau != nullptr ? static_cast<int64_t>(tau->k_cap()) : 0;
  // The correction extremes are uniform: every live handle holds one
  // score per dead base point / live delta point, so the conservative
  // shifts hoist out of the loop.
  const int64_t t_lo = static_cast<int64_t>(k) -
                       static_cast<int64_t>(delta_points_->size() -
                                            dead_delta_points_);
  const int64_t t_hi =
      static_cast<int64_t>(k) + static_cast<int64_t>(dead_base_points_);
  std::vector<int64_t> base_thr(nbw, 0);
  size_t fallback_base = 0;
  for (size_t li = 0; li < live_w; ++li) {
    const size_t h = live_weight_ids_[li];
    // The incrementally patched live τ answers exactly: corrections are
    // already folded into the head, so this is the clean engine's row
    // test (one contiguous read per stream).
    if (live_tau_cap_ != 0) {
      if (h < nbw) {
        if (k <= live_tau_valid_[h]) {
          if (prep.fq[h] <= live_tau_[(k - 1) * nbw + h]) {
            result.push_back(static_cast<VectorId>(li));
          }
          continue;
        }
      } else if (k <= delta_live_tau_valid_[h - nbw]) {
        if (prep.fq[h] <= delta_live_tau_[h - nbw][k - 1]) {
          result.push_back(static_cast<VectorId>(li));
        }
        continue;
      }
    }
    // rank_live < k  ⟺  rank_base < k + removed − added =: t, where
    // removed ∈ [0, |dead scores|] and added ∈ [0, |delta scores|]. Try
    // to decide the weight against the extreme shifts first — the τ
    // row/histogram bounds rank_base in O(log k_cap), so a decisive
    // verdict skips the correction counts entirely.
    if (tau != nullptr && h < nbw) {
      if (t_lo > static_cast<int64_t>(nbp)) {
        result.push_back(static_cast<VectorId>(li));
        continue;
      }
      // Qualify under the smallest possible threshold: rank_base < t_lo
      // ≤ t. One w-contiguous τ-row read, like the clean engine's test.
      if (t_lo >= 1 && t_lo <= k_cap &&
          prep.fq[h] <= tau->Threshold(h, static_cast<size_t>(t_lo))) {
        result.push_back(static_cast<VectorId>(li));
        continue;
      }
      // Reject under the largest: rank_base >= t_hi ≥ t. Via the τ row
      // when t_hi is within it, else the O(1) histogram lower bound.
      if (t_hi <= k_cap) {
        if (prep.fq[h] > tau->Threshold(h, static_cast<size_t>(t_hi))) {
          continue;
        }
      } else if (tau->RankLowerBound(h, prep.fq[h]) >= t_hi) {
        continue;
      }
    }
    if (prep.known.empty() || prep.known[h] == 0) {
      const uint32_t one = static_cast<uint32_t>(h);
      EnsureCorrections(prep, std::span<const uint32_t>(&one, 1));
    }
    const int64_t t =
        static_cast<int64_t>(k) + prep.removed[h] - prep.added[h];
    if (t <= 0) continue;
    if (t > static_cast<int64_t>(nbp)) {
      result.push_back(static_cast<VectorId>(li));
      continue;
    }
    if (tau != nullptr && h < nbw) {
      if (t <= k_cap) {
        // The shifted-threshold τ test: delta/tombstone scores displaced
        // the effective threshold from τ_k to τ_t.
        if (prep.fq[h] <= tau->Threshold(h, static_cast<size_t>(t))) {
          result.push_back(static_cast<VectorId>(li));
        }
        continue;
      }
      // t beyond the τ row: the histogram still brackets rank_base, and
      // only the unresolved band pays a blocked scan.
      const TauRankBounds bounds = tau->BoundRank(h, prep.fq[h]);
      if (bounds.hi < t) {
        result.push_back(static_cast<VectorId>(li));
        continue;
      }
      if (bounds.lo >= t) continue;
    }
    if (h >= nbw) {
      // Delta weights never scan: rank_base is a sample binary search
      // plus one block decode of the compressed base-point scores
      // captured at InsertWeight.
      if (delta_weight_base_scores_[h - nbw].CountStrictlyBelow(prep.fq[h]) <
          t) {
        result.push_back(static_cast<VectorId>(li));
      }
      continue;
    }
    base_thr[h] = t;
    ++fallback_base;
  }
  if (fallback_base > 0) {
    BlockedScanner base_scanner(*base_points_, gir_->point_cells(),
                                *base_weights_, gir_->weight_cells(),
                                gir_->grid(), options_.gir.bound_mode, {},
                                gir_->block_max().get());
    // The dominance buffer costs an O(n·d) pass over every base point;
    // only amortized when the fallback spans enough weights. Results are
    // identical either way (domin is purely a pruning device).
    const bool use_domin =
        options_.gir.use_domin && fallback_base >= kDominMinWeights;
    const BlockedScanner::QueryContext qctx =
        base_scanner.MakeQueryContext(q, use_domin);
    BlockedScratch scratch;
    std::vector<int64_t> ranks;
    const size_t batch = base_scanner.weight_batch();
    for (size_t b = 0; b < nbw; b += batch) {
      const size_t e = std::min(b + batch, nbw);
      // Threshold 0 masks a slot; a batch without a fallback weight is
      // skipped outright.
      if (std::all_of(base_thr.begin() + b, base_thr.begin() + e,
                      [](int64_t t) { return t == 0; })) {
        continue;
      }
      ranks.resize(e - b);
      base_scanner.RankBatch(q, qctx, b, e, base_thr.data() + b,
                             ranks.data(), scratch, stats);
      for (size_t i = 0; i < e - b; ++i) {
        if (base_thr[b + i] != 0 && ranks[i] != kRankOverThreshold) {
          result.push_back(live_weight_id(b + i));
        }
      }
    }
  }
  std::sort(result.begin(), result.end());
  return result;
}

ReverseKRanksResult DynamicGirIndex::DirtyReverseKRanks(
    ConstRow q, size_t k, QueryStats* stats,
    std::atomic<int64_t>* shared_cap) const {
  const size_t live_w = live_weight_ids_.size();
  if (k == 0 || live_w == 0) return {};
  const size_t nbp = base_points_->size();
  const size_t nbw = base_weights_->size();
  const size_t take = std::min(k, live_w);
  const int64_t no_bound = static_cast<int64_t>(live_point_ids_.size());
  // Per-thread scratch: the dirty engines are called per query from both
  // serial and pool-striped batch calls, and reuse keeps the scoring
  // buffer's allocation out of the per-query cost.
  static thread_local QueryPrep prep;
  PrepareQuery(q, prep, stats);
  const TauIndex* tau = gir_->tau_index();
  // Corrections every weight needs up front, counted in one batched
  // pass per store rather than one search chain each: all live weights
  // without τ, and the delta weights (the tail of live_weight_ids_)
  // with it.
  if (tau == nullptr) {
    EnsureCorrections(prep, live_weight_ids_);
  } else {
    const auto first_delta =
        std::lower_bound(live_weight_ids_.begin(), live_weight_ids_.end(),
                         static_cast<uint32_t>(nbw));
    EnsureCorrections(prep, std::span<const uint32_t>(
                                first_delta, live_weight_ids_.end()));
  }

  // Phase 1: bracket every live weight's rank. τ rows and histograms
  // bracket the all-base rank; shifting by (added − removed) brackets the
  // live rank. Delta weights resolve exactly here — rank_base is a binary
  // search over the sorted base scores captured at InsertWeight. Base
  // weights without τ get the trivial bracket [added, |base P| + shift].
  const int64_t n_dead = static_cast<int64_t>(dead_base_points_);
  const int64_t n_delta =
      static_cast<int64_t>(delta_points_->size() - dead_delta_points_);
  std::vector<int64_t> lo(live_w);
  std::vector<int64_t> hi(live_w);
  for (size_t li = 0; li < live_w; ++li) {
    const size_t h = live_weight_ids_[li];
    if (tau != nullptr && h < nbw) {
      // Conservative bracket under the extreme corrections (removed ≤
      // dead base points, added ≤ live delta points — both uniform over
      // live handles); tightened to the exact bracket only for weights
      // surviving the kth_hi prune, so the correction counts
      // run for the candidate band alone.
      const TauRankBounds bounds = tau->BoundRank(h, prep.fq[h]);
      lo[li] = std::max<int64_t>(bounds.lo - n_dead, 0);
      hi[li] = bounds.hi + n_delta;
    } else if (h >= nbw) {
      const int64_t r = delta_weight_base_scores_[h - nbw].CountStrictlyBelow(
                            prep.fq[h]) +
                        prep.added[h] - prep.removed[h];
      lo[li] = r;
      hi[li] = r;
    } else {
      const int64_t shift = prep.added[h] - prep.removed[h];
      lo[li] = prep.added[h];
      hi[li] = static_cast<int64_t>(nbp) + shift;
    }
  }
  int64_t kth_hi = no_bound;
  if (live_w > take) {
    std::vector<int64_t> tmp(hi);
    std::nth_element(tmp.begin(), tmp.begin() + (take - 1), tmp.end());
    kth_hi = tmp[take - 1];
  }
  // A cross-index cap is an upper bound on the GLOBAL k-th rank, which is
  // ≤ this index's own k-th (a subset's k-th order statistic can only be
  // larger), so folding it in is sound and strictly tightens the prune.
  if (shared_cap != nullptr) {
    kth_hi = std::min(kth_hi, shared_cap->load(std::memory_order_relaxed));
  }

  // Tighten the survivors of the conservative prune to their exact
  // brackets, then re-derive kth_hi: pruned weights keep a hi that is >=
  // their exact hi, so the recomputed cap is sound and the unresolved
  // band ends up the same as with eager corrections.
  if (tau != nullptr) {
    prep.batch.clear();
    for (size_t li = 0; li < live_w; ++li) {
      const uint32_t h = live_weight_ids_[li];
      if (lo[li] <= kth_hi && h < nbw) prep.batch.push_back(h);
    }
    EnsureCorrections(prep, prep.batch);
    bool tightened = false;
    for (size_t li = 0; li < live_w; ++li) {
      if (lo[li] > kth_hi) continue;
      const size_t h = live_weight_ids_[li];
      if (h >= nbw) continue;
      const int64_t shift = prep.added[h] - prep.removed[h];
      const TauRankBounds bounds = tau->BoundRank(h, prep.fq[h]);
      lo[li] = std::max(bounds.lo + shift, prep.added[h]);
      hi[li] = bounds.hi + shift;
      tightened = true;
    }
    if (tightened && live_w > take) {
      std::vector<int64_t> tmp(hi);
      std::nth_element(tmp.begin(), tmp.begin() + (take - 1), tmp.end());
      kth_hi = std::min(kth_hi, tmp[take - 1]);
    }
  }

  std::vector<RankedWeight> heap;
  heap.reserve(take + 1);
  // Only base weights can remain unresolved: delta weights left phase 1
  // with an exact (lo == hi) bracket.
  std::vector<uint8_t> base_unresolved(nbw, 0);
  size_t unresolved_count = 0;
  for (size_t li = 0; li < live_w; ++li) {
    if (lo[li] > kth_hi) continue;
    if (lo[li] == hi[li]) {
      PushRanked(heap, take,
                 RankedWeight{static_cast<VectorId>(li), lo[li]});
    } else {
      base_unresolved[live_weight_ids_[li]] = 1;
      ++unresolved_count;
    }
  }

  if (unresolved_count > 0) {
    BlockedScanner base_scanner(*base_points_, gir_->point_cells(),
                                *base_weights_, gir_->weight_cells(),
                                gir_->grid(), options_.gir.bound_mode, {},
                                gir_->block_max().get());
    // Same gate as the top-k fallback: the dominance pass is O(n·d) and
    // only pays off when enough weights are unresolved.
    const bool use_domin = options_.gir.use_domin &&
                           unresolved_count >= kDominMinWeights;
    const BlockedScanner::QueryContext qctx =
        base_scanner.MakeQueryContext(q, use_domin);
    // The cap self-refines from the heap at batch granularity, exactly
    // like the static blocked k-ranks scan.
    const size_t batch = base_scanner.weight_batch();
    BlockedScratch scratch;
    std::vector<int64_t> thr;
    std::vector<int64_t> ranks;
    for (size_t b = 0; b < nbw; b += batch) {
      const size_t e = std::min(b + batch, nbw);
      if (std::find(base_unresolved.begin() + b, base_unresolved.begin() + e,
                    1) == base_unresolved.begin() + e) {
        continue;
      }
      int64_t cap = kth_hi;
      if (heap.size() == take) cap = std::min(cap, heap.front().rank);
      // Re-read the shared bound at batch granularity: sibling shards
      // publish their exact k-th as they finish, so trailing scans
      // tighten progressively. Any stale value read here is merely a
      // looser (still sound) cap.
      if (shared_cap != nullptr) {
        cap = std::min(cap, shared_cap->load(std::memory_order_relaxed));
      }
      thr.resize(e - b);
      ranks.resize(e - b);
      for (size_t h = b; h < e; ++h) {
        const int64_t shift = prep.added[h] - prep.removed[h];
        thr[h - b] = base_unresolved[h] != 0
                         ? std::max<int64_t>(cap + 1 - shift, 0)
                         : 0;
      }
      base_scanner.RankBatch(q, qctx, b, e, thr.data(), ranks.data(),
                             scratch, stats);
      for (size_t h = b; h < e; ++h) {
        if (base_unresolved[h] == 0 || ranks[h - b] == kRankOverThreshold) {
          continue;
        }
        const int64_t shift = prep.added[h] - prep.removed[h];
        PushRanked(heap, take,
                   RankedWeight{live_weight_id(h), ranks[h - b] + shift});
      }
    }
  }
  std::sort(heap.begin(), heap.end());
  // Publish this index's k-th rank for sibling shards — only with k full
  // results in hand. heap.back() is the k-th smallest rank among the
  // weights that survived the cap, which is ≥ this index's true k-th
  // (pruning can only raise an order statistic) and therefore still ≥ the
  // global k-th: the fetch-min below never under-caps a sibling.
  if (shared_cap != nullptr && heap.size() == k) {
    const int64_t kth = heap.back().rank;
    int64_t cur = shared_cap->load(std::memory_order_relaxed);
    while (kth < cur && !shared_cap->compare_exchange_weak(
                            cur, kth, std::memory_order_relaxed)) {
    }
  }
  return heap;
}

// ---- Public query entry points ------------------------------------------

ReverseTopKResult DynamicGirIndex::ReverseTopK(ConstRow q, size_t k,
                                               QueryStats* stats) const {
  if (!dirty()) return gir_->ReverseTopK(q, k, stats);
  return DirtyReverseTopK(q, k, stats);
}

ReverseKRanksResult DynamicGirIndex::ReverseKRanks(ConstRow q, size_t k,
                                                   QueryStats* stats) const {
  if (!dirty()) return gir_->ReverseKRanks(q, k, stats);
  return DirtyReverseKRanks(q, k, stats);
}

ReverseKRanksResult DynamicGirIndex::ReverseKRanksCapped(
    ConstRow q, size_t k, std::atomic<int64_t>* shared_cap,
    QueryStats* stats) const {
  // Always the dirty engine: it is exact on a clean index too (every
  // correction is zero, so the brackets are the clean brackets), and it
  // is the engine the cap protocol is threaded through.
  return DirtyReverseKRanks(q, k, stats, shared_cap);
}

std::vector<ReverseTopKResult> DynamicGirIndex::ReverseTopKBatch(
    const Dataset& queries, size_t k, QueryStats* stats,
    ThreadPool* pool) const {
  if (!dirty()) return gir_->ReverseTopKBatch(queries, k, stats, pool);
  return QueryRows<ReverseTopKResult>(
      queries, stats, pool, [&](ConstRow q, QueryStats* row_stats) {
        return DirtyReverseTopK(q, k, row_stats);
      });
}

std::vector<ReverseKRanksResult> DynamicGirIndex::ReverseKRanksBatch(
    const Dataset& queries, size_t k, QueryStats* stats,
    ThreadPool* pool) const {
  if (!dirty()) return gir_->ReverseKRanksBatch(queries, k, stats, pool);
  return QueryRows<ReverseKRanksResult>(
      queries, stats, pool, [&](ConstRow q, QueryStats* row_stats) {
        return DirtyReverseKRanks(q, k, row_stats);
      });
}

}  // namespace gir
