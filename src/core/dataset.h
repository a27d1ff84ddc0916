#ifndef GIR_CORE_DATASET_H_
#define GIR_CORE_DATASET_H_

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "core/status.h"
#include "core/types.h"

namespace gir {

/// A dense, row-major collection of d-dimensional non-negative vectors.
/// Used for both the product set P and the preference set W. Storage is a
/// single contiguous buffer so sequential scans (the workload this library
/// optimizes) are cache-friendly.
class Dataset {
 public:
  /// Creates an empty dataset with the given dimensionality.
  explicit Dataset(size_t dim);

  /// Creates a dataset adopting `values` (size must be a multiple of dim).
  /// Returns InvalidArgument on shape mismatch, dim == 0, or any negative
  /// or non-finite value.
  static Result<Dataset> FromFlat(size_t dim, std::vector<double> values);

  /// Convenience literal constructor for tests and examples:
  /// Dataset::FromRows({{1, 2}, {3, 4}}).
  static Result<Dataset> FromRows(
      std::initializer_list<std::initializer_list<double>> rows);

  size_t dim() const { return dim_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Read-only view of row i. Precondition: i < size().
  ConstRow row(size_t i) const {
    return ConstRow(data_.data() + i * dim_, dim_);
  }

  /// Raw contiguous buffer (size() * dim() doubles, row-major).
  const std::vector<double>& flat() const { return data_; }

  /// Appends one row. Precondition enforced at runtime: row.size() == dim().
  /// Negative/non-finite values return InvalidArgument.
  Status Append(ConstRow row);

  /// Appends without validation; caller guarantees non-negative finite
  /// values of the right width. Used by generators on their own output.
  void AppendUnchecked(ConstRow row);

  /// Reserves capacity for n rows.
  void Reserve(size_t n) { data_.reserve(n * dim_); }

  /// Largest value over all rows and dimensions; 0 for an empty dataset.
  /// Grid partitioners use this as the value range r.
  double MaxValue() const;

  /// Smallest value over all rows and dimensions; 0 for an empty dataset.
  double MinValue() const;

  /// Per-dimension minima/maxima (each of length dim()); zeros when empty.
  std::vector<double> PerDimMin() const;
  std::vector<double> PerDimMax() const;

 private:
  size_t dim_;
  size_t size_ = 0;
  std::vector<double> data_;
};

/// True iff every value of `row` is finite and non-negative — the value
/// contract of every indexed row and every query row.
bool RowValuesValid(ConstRow row);

/// Validates that `w` is a preference vector: non-negative entries summing
/// to 1 within `tolerance`.
Status ValidateWeight(ConstRow w, double tolerance = 1e-9);

/// Scales `w` in place so its entries sum to 1. Returns InvalidArgument if
/// the sum is zero/non-finite or any entry is negative.
Status NormalizeWeight(std::vector<double>& w);

/// Validates every row of `weights` with ValidateWeight.
Status ValidateWeightDataset(const Dataset& weights, double tolerance = 1e-6);

/// True iff p dominates q: p[i] < q[i] on every dimension. With
/// non-negative weights summing to 1 this implies f_w(p) < f_w(q) for all w.
bool Dominates(ConstRow p, ConstRow q);

/// Computes the inner product f_w(p) = sum_i w[i] * p[i].
/// Preconditions: w.size() == p.size().
inline Score InnerProduct(ConstRow w, ConstRow p) {
  Score s = 0.0;
  for (size_t i = 0; i < w.size(); ++i) s += w[i] * p[i];
  return s;
}

}  // namespace gir

#endif  // GIR_CORE_DATASET_H_
