#include "grid/score_runs.h"

#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <new>
#include <utility>

namespace gir {

namespace {

/// Sorts n (a power of two) doubles ascending with a bitonic network:
/// every compare-exchange is a select, so a run costs the same on any
/// input. The exchange keeps both operands (never min/max), so ±0.0 and
/// other equal-comparing pairs survive as a multiset.
template <size_t N>
void SortNetwork(double* v) {
  static_assert((N & (N - 1)) == 0, "bitonic network needs a power of two");
  for (size_t k = 2; k <= N; k <<= 1) {
    for (size_t j = k >> 1; j > 0; j >>= 1) {
      for (size_t i = 0; i < N; ++i) {
        const size_t l = i ^ j;
        if (l <= i) continue;
        const double a = v[i];
        const double b = v[l];
        const bool swap = (i & k) == 0 ? b < a : a < b;
        v[i] = swap ? b : a;
        v[l] = swap ? a : b;
      }
    }
  }
}

/// Merges sorted a[0, na) and b[0, nb) into out. The element choice is a
/// select and both cursors advance arithmetically, so the loop carries
/// no data-dependent branch (std::merge mispredicts about every other
/// element on random scores).
void MergeRows(const double* a, size_t na, const double* b, size_t nb,
               double* out) {
  size_t i = 0;
  size_t j = 0;
  while (i < na && j < nb) {
    const double x = a[i];
    const double y = b[j];
    const size_t take_b = static_cast<size_t>(y < x);
    *out++ = take_b != 0 ? y : x;
    i += 1 - take_b;
    j += take_b;
  }
  out = std::copy(a + i, a + na, out);
  std::copy(b + j, b + nb, out);
}

/// Odd multiplier of handle 0; handle h uses (2h + 1) · kFingerprintBase.
constexpr uint64_t kFingerprintBase = 0x9E3779B97F4A7C15ull;

/// The score's bits, with -0.0 folded onto +0.0: the two compare equal,
/// so a fingerprint must not tell them apart either.
uint64_t ScoreKey(double s) {
  return s == 0.0 ? 0 : std::bit_cast<uint64_t>(s);
}

/// Matrices of at least this many bytes bypass malloc (NewMatrix). Every
/// carry frees the levels it merges; freed through malloc, a block above
/// glibc's mmap threshold raises that threshold to its own size, and
/// later blocks up to that size then come from the heap and stay resident
/// once freed. The process's resident size would then depend on where
/// the carries happened to stop (measured on perfbench durable_churn:
/// 90–139 MiB across seeds through malloc, 54–78 MiB with the threshold
/// pinned). 128 KiB is glibc's initial threshold. AddressSanitizer checks
/// only the blocks it hands out, so under it every matrix stays on the
/// checked heap.
#if defined(__SANITIZE_ADDRESS__)
constexpr size_t kMapBytes = SIZE_MAX;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
constexpr size_t kMapBytes = SIZE_MAX;
#else
constexpr size_t kMapBytes = size_t{128} << 10;
#endif
#else
constexpr size_t kMapBytes = size_t{128} << 10;
#endif

/// Upper bound on occupied levels: level ℓ holds kBuffer · 2^ℓ points and
/// point handles are 32-bit.
constexpr size_t kMaxLevels = 32;

}  // namespace

uint64_t ScoreRuns::FingerprintTerm(size_t h, double s) {
  return ScoreKey(s) * ((2 * static_cast<uint64_t>(h) + 1) * kFingerprintBase);
}

uint64_t ScoreRuns::Fingerprint(const double* scores, size_t n) {
  uint64_t sum = 0;
  uint64_t multiplier = kFingerprintBase;
  for (size_t h = 0; h < n; ++h) {
    sum += ScoreKey(scores[h]) * multiplier;
    multiplier += 2 * kFingerprintBase;
  }
  return sum;
}

void ScoreRuns::MatrixRelease::operator()(double* matrix) const {
  if (bytes >= kMapBytes) {
    munmap(matrix, bytes);
  } else {
    delete[] matrix;
  }
}

ScoreRuns::Matrix ScoreRuns::NewMatrix(size_t width) const {
  const size_t bytes = row_cap_ * width * sizeof(double);
  if (bytes < kMapBytes) {
    return Matrix(new double[row_cap_ * width], MatrixRelease{bytes});
  }
  void* mapped = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mapped == MAP_FAILED) throw std::bad_alloc();
  return Matrix(static_cast<double*>(mapped), MatrixRelease{bytes});
}

void ScoreRuns::Reset(size_t num_handles) {
  handles_ = num_handles;
  row_cap_ = num_handles;
  size_ = 0;
  buffer_.reset();
  buffer_points_ = std::vector<uint32_t>();
  buffer_fingerprints_ = std::vector<uint64_t>();
  levels_ = std::vector<Level>();
}

void ScoreRuns::Fill(size_t num_handles, const std::vector<uint32_t>& points,
                     const std::function<void(uint32_t, double*)>& score) {
  Reset(num_handles);
  if (points.empty()) return;
  // The layout a run of appends would leave: the newest size % kBuffer
  // points buffered, the rest in the levels named by the set bits of
  // size / kBuffer, oldest in the highest level.
  struct Segment {
    double* matrix;
    uint64_t* fingerprints;
    size_t point_step;   // matrix stride between consecutive points
    size_t handle_step;  // matrix stride between consecutive handles
    size_t first;  // index into `points` of the segment's first point
  };
  std::vector<Segment> segments;
  const size_t runs = points.size() / kBuffer;
  size_t next = 0;
  for (size_t l = 64; l-- > 0;) {
    if (((runs >> l) & 1u) == 0) continue;
    if (levels_.size() <= l) levels_.resize(l + 1);
    Level& level = levels_[l];
    const size_t width = kBuffer << l;
    level.points.assign(points.begin() + next, points.begin() + next + width);
    level.fingerprints.resize(width);
    level.scores = NewMatrix(width);
    segments.push_back(
        {level.scores.get(), level.fingerprints.data(), 1, width, next});
    next += width;
  }
  buffer_ = NewMatrix(kBuffer);
  buffer_points_.reserve(kBuffer);
  buffer_points_.assign(points.begin() + next, points.end());
  buffer_fingerprints_.reserve(kBuffer);
  buffer_fingerprints_.resize(buffer_points_.size());
  segments.push_back(
      {buffer_.get(), buffer_fingerprints_.data(), row_cap_, 1, next});

  std::vector<double> sp(handles_);
  size_t seg = 0;
  for (size_t i = 0; i < points.size(); ++i) {
    while (seg + 1 < segments.size() && i >= segments[seg + 1].first) ++seg;
    const Segment& s = segments[seg];
    score(points[i], sp.data());
    double* col = s.matrix + (i - s.first) * s.point_step;
    for (size_t h = 0; h < handles_; ++h) col[h * s.handle_step] = sp[h];
    s.fingerprints[i - s.first] = Fingerprint(sp.data(), handles_);
  }
  for (Level& level : levels_) {
    const size_t width = level.points.size();
    for (size_t h = 0; h < handles_ && width > 0; ++h) {
      double* row = level.scores.get() + h * width;
      std::sort(row, row + width);
    }
  }
  size_ = points.size();
}

void ScoreRuns::Append(uint32_t point, const double* scores) {
  if (buffer_ == nullptr) {
    buffer_ = NewMatrix(kBuffer);
    buffer_points_.reserve(kBuffer);
    buffer_fingerprints_.reserve(kBuffer);
  }
  std::memcpy(BufferSlot(buffer_points_.size()), scores,
              handles_ * sizeof(double));
  buffer_points_.push_back(point);
  buffer_fingerprints_.push_back(Fingerprint(scores, handles_));
  ++size_;
  if (buffer_points_.size() == kBuffer) Carry();
}

void ScoreRuns::Carry() {
  Level run;
  run.points = std::move(buffer_points_);
  run.fingerprints = std::move(buffer_fingerprints_);
  buffer_points_ = std::vector<uint32_t>();
  buffer_points_.reserve(kBuffer);
  buffer_fingerprints_ = std::vector<uint64_t>();
  buffer_fingerprints_.reserve(kBuffer);
  run.scores = NewMatrix(kBuffer);
  for (size_t h = 0; h < handles_; ++h) {
    double* row = run.scores.get() + h * kBuffer;
    for (size_t slot = 0; slot < kBuffer; ++slot) {
      row[slot] = buffer_[slot * row_cap_ + h];
    }
    SortNetwork<kBuffer>(row);
  }
  for (size_t l = 0;; ++l) {
    if (l == levels_.size()) levels_.emplace_back();
    Level& level = levels_[l];
    if (level.points.empty()) {
      level = std::move(run);
      return;
    }
    // Both inputs are kBuffer << l wide: the carried run holds the newer
    // points, so the merged level lists the level's points first.
    const size_t width = level.points.size();
    Level merged;
    merged.points.reserve(2 * width);
    merged.points.assign(level.points.begin(), level.points.end());
    merged.points.insert(merged.points.end(), run.points.begin(),
                         run.points.end());
    merged.fingerprints.reserve(2 * width);
    merged.fingerprints.assign(level.fingerprints.begin(),
                               level.fingerprints.end());
    merged.fingerprints.insert(merged.fingerprints.end(),
                               run.fingerprints.begin(),
                               run.fingerprints.end());
    merged.scores = NewMatrix(2 * width);
    for (size_t h = 0; h < handles_; ++h) {
      MergeRows(level.scores.get() + h * width, width,
                run.scores.get() + h * width, width,
                merged.scores.get() + h * 2 * width);
    }
    level = Level{};
    run = std::move(merged);
  }
}

bool ScoreRuns::Holds(uint32_t point, const double* scores) const {
  const uint64_t* held = nullptr;
  const auto it =
      std::find(buffer_points_.begin(), buffer_points_.end(), point);
  if (it != buffer_points_.end()) {
    held = &buffer_fingerprints_[it - buffer_points_.begin()];
  }
  for (const Level& level : levels_) {
    if (held != nullptr) break;
    const auto at = std::find(level.points.begin(), level.points.end(), point);
    if (at != level.points.end()) {
      held = &level.fingerprints[at - level.points.begin()];
    }
  }
  return held != nullptr && *held == Fingerprint(scores, handles_);
}

bool ScoreRuns::EraseBuffered(uint32_t point) {
  const auto it =
      std::find(buffer_points_.begin(), buffer_points_.end(), point);
  if (it == buffer_points_.end()) return false;
  const size_t slot = static_cast<size_t>(it - buffer_points_.begin());
  const size_t last = buffer_points_.size() - 1;
  if (slot != last) {
    std::memcpy(BufferSlot(slot), BufferSlot(last),
                handles_ * sizeof(double));
  }
  buffer_points_[slot] = buffer_points_[last];
  buffer_points_.pop_back();
  buffer_fingerprints_[slot] = buffer_fingerprints_[last];
  buffer_fingerprints_.pop_back();
  --size_;
  return true;
}

void ScoreRuns::Regrow(size_t rows) {
  const size_t used = handles_;
  const size_t old_cap = row_cap_;
  row_cap_ = rows;
  if (buffer_ != nullptr) {
    Matrix grown = NewMatrix(kBuffer);
    for (size_t slot = 0; slot < buffer_points_.size(); ++slot) {
      std::memcpy(grown.get() + slot * row_cap_,
                  buffer_.get() + slot * old_cap, used * sizeof(double));
    }
    buffer_ = std::move(grown);
  }
  for (Level& level : levels_) {
    const size_t width = level.points.size();
    if (width == 0) continue;
    Matrix grown = NewMatrix(width);
    std::memcpy(grown.get(), level.scores.get(),
                used * width * sizeof(double));
    level.scores = std::move(grown);
  }
}

void ScoreRuns::AddHandle(const std::function<double(uint32_t)>& score_of) {
  if (handles_ == row_cap_) Regrow(handles_ + std::max<size_t>(handles_ / 8, 8));
  const size_t h = handles_++;
  for (size_t slot = 0; slot < buffer_points_.size(); ++slot) {
    const double s = score_of(buffer_points_[slot]);
    BufferSlot(slot)[h] = s;
    buffer_fingerprints_[slot] += FingerprintTerm(h, s);
  }
  for (Level& level : levels_) {
    const size_t width = level.points.size();
    if (width == 0) continue;
    double* row = level.scores.get() + h * width;
    for (size_t i = 0; i < width; ++i) {
      row[i] = score_of(level.points[i]);
      level.fingerprints[i] += FingerprintTerm(h, row[i]);
    }
    std::sort(row, row + width);
  }
}

void ScoreRuns::AccumulateCountsBelow(std::span<const uint32_t> handles,
                                      const double* s, int64_t sign,
                                      int64_t* counts) const {
  if (size_ == 0) return;
  // A buffer slot is one column over the handles: stream each once.
  for (size_t slot = 0; slot < buffer_points_.size(); ++slot) {
    const double* col = BufferSlot(slot);
    for (uint32_t h : handles) {
      counts[h] += sign * static_cast<int64_t>(col[h] < s[h]);
    }
  }
  constexpr size_t kGroup = 16;
  for (const Level& level : levels_) {
    const size_t w = level.points.size();
    if (w == 0) continue;
    const double* matrix = level.scores.get();
    for (size_t first = 0; first < handles.size(); first += kGroup) {
      const size_t g = std::min(kGroup, handles.size() - first);
      const double* base[kGroup];
      double key[kGroup];
      for (size_t i = 0; i < g; ++i) {
        const uint32_t h = handles[first + i];
        base[i] = matrix + h * w;
        key[i] = s[h];
      }
      // The step is masked arithmetic, not a conditional: GCC at -O3
      // turns `cond ? half : 0` into branches here, which serializes the
      // group's loads (measured ~3x slower).
      for (size_t half = w >> 1; half > 0; half >>= 1) {
        for (size_t i = 0; i < g; ++i) {
          const size_t take = static_cast<size_t>(base[i][half] < key[i]);
          base[i] += half & (0 - take);
        }
      }
      for (size_t i = 0; i < g; ++i) {
        const uint32_t h = handles[first + i];
        const int64_t count = (base[i] - (matrix + h * w)) +
                              static_cast<int64_t>(*base[i] < key[i]);
        counts[h] += sign * count;
      }
    }
  }
}

void ScoreRuns::SortedRow(size_t h, std::vector<double>* out) const {
  out->clear();
  out->reserve(size_);
  for (size_t slot = 0; slot < buffer_points_.size(); ++slot) {
    out->push_back(BufferSlot(slot)[h]);
  }
  std::sort(out->begin(), out->end());
  for (const Level& level : levels_) {
    const size_t width = level.points.size();
    if (width == 0) continue;
    const double* row = level.scores.get() + h * width;
    const size_t mid = out->size();
    out->insert(out->end(), row, row + width);
    std::inplace_merge(out->begin(), out->begin() + mid, out->end());
  }
}

size_t ScoreRuns::MemoryBytes() const {
  size_t bytes = levels_.capacity() * sizeof(Level) +
                 buffer_points_.capacity() * sizeof(uint32_t) +
                 buffer_fingerprints_.capacity() * sizeof(uint64_t);
  if (buffer_ != nullptr) bytes += row_cap_ * kBuffer * sizeof(double);
  for (const Level& level : levels_) {
    bytes += level.points.capacity() * sizeof(uint32_t) +
             level.fingerprints.capacity() * sizeof(uint64_t);
    if (!level.points.empty()) {
      bytes += row_cap_ * level.points.size() * sizeof(double);
    }
  }
  return bytes;
}

}  // namespace gir
