#ifndef GIR_GRID_SCORE_RUNS_H_
#define GIR_GRID_SCORE_RUNS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

namespace gir {

/// ScoreRuns — a multiset of scores per weight handle, grown one point at
/// a time, that answers the dynamic index's strict-below counts
/// (DESIGN.md §12). Every append adds one score to *every* handle (the
/// point's score under each weight), so all handles share one run layout:
///
///   * Buffer. kBuffer unsorted slots per handle, stored slot-major: one
///     contiguous column over the handles per buffered point, so an
///     append is one contiguous copy.
///   * Levels. Binary-counter runs behind the buffer: level ℓ is either
///     empty or a handle × (kBuffer · 2^ℓ) matrix of sorted rows. A full
///     buffer sorts its rows into a run of width kBuffer and carries it
///     up, merging row by row with every occupied level it meets.
///
/// Each level (and the buffer) records the point handles it holds, so a
/// handle added mid-stream (a weight insert) scores its own row for each
/// level, and a buffered point can be removed in place.
///
/// Costs per handle count |W| and held points δ: an append is O(|W|)
/// stores plus an amortized O(|W| · log(δ / kBuffer)) merge; a count is
/// O(kBuffer + Σ_ℓ log(kBuffer · 2^ℓ)). Level matrices are sized exactly
/// in the point dimension; in the handle dimension every matrix shares
/// one row capacity that grows by 1/8 when a handle is added, so adding a
/// weight does not copy the store each time.
///
/// Counts are exact: stored scores are compared with `<` exactly as the
/// caller's sorted arrays were, so ties and ±0.0 count the same way.
class ScoreRuns {
 public:
  /// Buffer width (slots per handle). A fixed layout constant.
  static constexpr size_t kBuffer = 16;

  ScoreRuns() = default;
  ScoreRuns(ScoreRuns&&) = default;
  ScoreRuns& operator=(ScoreRuns&&) = default;

  /// Empties the store (releasing its memory) and sets the handle count.
  void Reset(size_t num_handles);

  /// Reset(num_handles), then holds every point in `points`:
  /// score(p, out) writes p's score under every handle into out[0, n).
  /// One pass lays the points straight into their binary-counter levels
  /// and sorts each row once — no carry cascade.
  void Fill(size_t num_handles, const std::vector<uint32_t>& points,
            const std::function<void(uint32_t, double*)>& score);

  size_t num_handles() const { return handles_; }
  /// Points held (scores per handle).
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Holds `point` with scores[h] under handle h, for every handle.
  void Append(uint32_t point, const double* scores);

  /// True iff `point` is held with scores[h] under every handle h. The
  /// check compares a fingerprint of the scores, Σ_h key(scores[h]) · M_h
  /// mod 2^64 with odd per-handle multipliers M_h, against the one taken
  /// when the point was appended (and extended by AddHandle): O(|W|)
  /// sequential work instead of a binary search per handle. A mismatch
  /// under any single handle always changes the sum (an odd M_h is
  /// invertible mod 2^64).
  bool Holds(uint32_t point, const double* scores) const;

  /// Removes `point` from the buffer in place (its slot takes the last
  /// buffered column). False when the point is not buffered — merged into
  /// a level, or not held at all — and the store is unchanged.
  bool EraseBuffered(uint32_t point);

  /// Adds handle num_handles() whose score for held point p is
  /// score_of(p).
  void AddHandle(const std::function<double(uint32_t)>& score_of);

  /// counts[h] += sign · #{held scores x under handle h : x < s[h]} for
  /// every h in `handles` (s and counts are indexed by handle). The
  /// binary searches of a group of handles run in lockstep, so their
  /// cache misses overlap instead of forming one dependent chain per
  /// search.
  void AccumulateCountsBelow(std::span<const uint32_t> handles,
                             const double* s, int64_t sign,
                             int64_t* counts) const;

  /// Handle h's held scores, ascending, into `out`.
  void SortedRow(size_t h, std::vector<double>* out) const;

  /// Resident bytes: buffer and level matrices at their row capacity,
  /// plus the point lists.
  size_t MemoryBytes() const;

 private:
  /// Frees a matrix the way NewMatrix allocated it (by its byte size;
  /// value-initialized to 0 with an empty pointer).
  struct MatrixRelease {
    size_t bytes;
    void operator()(double* matrix) const;
  };
  using Matrix = std::unique_ptr<double[], MatrixRelease>;

  struct Level {
    std::vector<uint32_t> points;  // width = points.size(); empty = unused
    std::vector<uint64_t> fingerprints;  // one per point (see Holds)
    Matrix scores;  // row_cap_ × width, handle-major
  };

  /// Holds()'s fingerprint of one point's scores under handles [0, n).
  static uint64_t Fingerprint(const double* scores, size_t n);
  /// The term handle h with score s adds to a fingerprint.
  static uint64_t FingerprintTerm(size_t h, double s);

  /// Allocates an uninitialized row_cap_ × width matrix. Large matrices
  /// are mapped from the kernel directly and unmapped when freed, so a
  /// carry returns the levels it empties (see score_runs.cc).
  Matrix NewMatrix(size_t width) const;
  /// Buffer slot `slot`: its score under every handle, by handle.
  double* BufferSlot(size_t slot) const {
    return buffer_.get() + slot * row_cap_;
  }
  /// Sorts the full buffer into a run and carries it up the levels.
  void Carry();
  /// Grows every matrix to `rows` rows of capacity.
  void Regrow(size_t rows);

  size_t handles_ = 0;
  size_t row_cap_ = 0;  // rows allocated in every matrix (>= handles_)
  size_t size_ = 0;
  Matrix buffer_;  // kBuffer × row_cap_ (slot-major); null until used
  std::vector<uint32_t> buffer_points_;
  std::vector<uint64_t> buffer_fingerprints_;
  std::vector<Level> levels_;
};

}  // namespace gir

#endif  // GIR_GRID_SCORE_RUNS_H_
