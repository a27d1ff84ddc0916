#include "core/dataset.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

namespace gir {

bool RowValuesValid(ConstRow row) {
  for (double v : row) {
    if (!std::isfinite(v) || v < 0.0) return false;
  }
  return true;
}

Dataset::Dataset(size_t dim) : dim_(dim) {}

Result<Dataset> Dataset::FromFlat(size_t dim, std::vector<double> values) {
  if (dim == 0) {
    return Status::InvalidArgument("dataset dimensionality must be positive");
  }
  if (values.size() % dim != 0) {
    return Status::InvalidArgument(
        "flat buffer size " + std::to_string(values.size()) +
        " is not a multiple of dim " + std::to_string(dim));
  }
  if (!RowValuesValid(values)) {
    return Status::InvalidArgument(
        "dataset values must be finite and non-negative");
  }
  Dataset ds(dim);
  ds.size_ = values.size() / dim;
  ds.data_ = std::move(values);
  return ds;
}

Result<Dataset> Dataset::FromRows(
    std::initializer_list<std::initializer_list<double>> rows) {
  if (rows.size() == 0) {
    return Status::InvalidArgument("FromRows requires at least one row");
  }
  const size_t dim = rows.begin()->size();
  std::vector<double> flat;
  flat.reserve(rows.size() * dim);
  for (const auto& row : rows) {
    if (row.size() != dim) {
      return Status::InvalidArgument("FromRows rows have inconsistent width");
    }
    flat.insert(flat.end(), row.begin(), row.end());
  }
  return FromFlat(dim, std::move(flat));
}

Status Dataset::Append(ConstRow row) {
  if (row.size() != dim_) {
    return Status::InvalidArgument(
        "row width " + std::to_string(row.size()) + " != dataset dim " +
        std::to_string(dim_));
  }
  if (!RowValuesValid(row)) {
    return Status::InvalidArgument(
        "dataset values must be finite and non-negative");
  }
  AppendUnchecked(row);
  return Status::OK();
}

void Dataset::AppendUnchecked(ConstRow row) {
  data_.insert(data_.end(), row.begin(), row.end());
  ++size_;
}

double Dataset::MaxValue() const {
  if (data_.empty()) return 0.0;
  return *std::max_element(data_.begin(), data_.end());
}

double Dataset::MinValue() const {
  if (data_.empty()) return 0.0;
  return *std::min_element(data_.begin(), data_.end());
}

std::vector<double> Dataset::PerDimMin() const {
  std::vector<double> mins(dim_, 0.0);
  if (size_ == 0) return mins;
  mins.assign(dim_, std::numeric_limits<double>::infinity());
  for (size_t i = 0; i < size_; ++i) {
    ConstRow r = row(i);
    for (size_t j = 0; j < dim_; ++j) mins[j] = std::min(mins[j], r[j]);
  }
  return mins;
}

std::vector<double> Dataset::PerDimMax() const {
  std::vector<double> maxs(dim_, 0.0);
  for (size_t i = 0; i < size_; ++i) {
    ConstRow r = row(i);
    for (size_t j = 0; j < dim_; ++j) maxs[j] = std::max(maxs[j], r[j]);
  }
  return maxs;
}

Status ValidateWeight(ConstRow w, double tolerance) {
  if (!RowValuesValid(w)) {
    return Status::InvalidArgument(
        "weight entries must be finite and non-negative");
  }
  double sum = 0.0;
  for (double v : w) sum += v;
  if (std::abs(sum - 1.0) > tolerance) {
    return Status::InvalidArgument("weight entries must sum to 1, got " +
                                   std::to_string(sum));
  }
  return Status::OK();
}

Status NormalizeWeight(std::vector<double>& w) {
  if (!RowValuesValid(w)) {
    return Status::InvalidArgument(
        "weight entries must be finite and non-negative");
  }
  double sum = 0.0;
  for (double v : w) sum += v;
  if (!(sum > 0.0) || !std::isfinite(sum)) {
    return Status::InvalidArgument("weight sum must be positive and finite");
  }
  for (double& v : w) v /= sum;
  return Status::OK();
}

Status ValidateWeightDataset(const Dataset& weights, double tolerance) {
  for (size_t i = 0; i < weights.size(); ++i) {
    Status s = ValidateWeight(weights.row(i), tolerance);
    if (!s.ok()) {
      return Status::InvalidArgument("weight row " + std::to_string(i) +
                                     ": " + s.message());
    }
  }
  return Status::OK();
}

bool Dominates(ConstRow p, ConstRow q) {
  for (size_t i = 0; i < p.size(); ++i) {
    if (!(p[i] < q[i])) return false;
  }
  return true;
}

}  // namespace gir
