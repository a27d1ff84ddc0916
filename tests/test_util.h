#ifndef GIR_TESTS_TEST_UTIL_H_
#define GIR_TESTS_TEST_UTIL_H_

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/dataset.h"
#include "data/generators.h"
#include "data/weights.h"

namespace gir {
namespace testing_util {

/// Small uniform product set on [0, 10K)^d.
inline Dataset SmallPoints(size_t n, size_t d, uint64_t seed) {
  return GenerateUniform(n, d, seed);
}

/// Small uniform-simplex preference set.
inline Dataset SmallWeights(size_t m, size_t d, uint64_t seed) {
  return GenerateWeightsUniform(m, d, seed);
}

/// A (P, W) pair for equivalence tests.
struct Workload {
  Dataset points;
  Dataset weights;
};

inline Workload MakeWorkload(size_t n, size_t m, size_t d, uint64_t seed) {
  return Workload{SmallPoints(n, d, seed), SmallWeights(m, d, seed + 1)};
}

/// Snaps every value to a coarse lattice and duplicates rows, so exact
/// scores tie constantly — the adversarial case for bound classification,
/// (rank, id) tie-breaking and the τ-index's inclusive threshold test.
inline Dataset MakeTieHeavy(size_t n, size_t d, uint64_t seed) {
  Dataset base = GenerateUniform(n, d, seed);
  std::vector<double> flat = base.flat();
  for (double& v : flat) v = std::floor(v / 2000.0) * 2000.0;
  // Duplicate the first quarter of the rows over the last quarter.
  const size_t quarter = n / 4;
  for (size_t i = 0; i < quarter; ++i) {
    for (size_t j = 0; j < d; ++j) {
      flat[(n - 1 - i) * d + j] = flat[i * d + j];
    }
  }
  return Dataset::FromFlat(d, std::move(flat)).value();
}

/// A one-row query block, for driving the block calls with one query.
inline Dataset OneRow(ConstRow q) {
  Dataset block(q.size());
  block.AppendUnchecked(q);
  return block;
}

}  // namespace testing_util
}  // namespace gir

#endif  // GIR_TESTS_TEST_UTIL_H_
