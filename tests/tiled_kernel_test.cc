// Bit-identity property tests for the register-tiled scoring kernel
// family (core/simd.h: ScoreTileColumns, MinMaxDoubles, BinDoubles) and
// the layers built on it: every tiled result must equal the scalar
// reference double-for-double — not approximately — across tile-remainder
// shapes, dimensions and tie-heavy data, because the τ-index's threshold
// comparisons and the engines' equality contracts rest on exact rounding.
// Also covers τ builds (tiled + histogram-guided selection prune vs a
// scalar sort oracle, single- vs multi-threaded) and the batched query
// entry points against per-query dispatch.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/dataset.h"
#include "core/simd.h"
#include "core/thread_pool.h"
#include "data/generators.h"
#include "data/weights.h"
#include "grid/gir_queries.h"
#include "grid/tau_index.h"
#include "test_util.h"

namespace gir {
namespace {

using testing_util::MakeTieHeavy;

// Scalar reference for one tiled output: mul-then-add in ascending
// dimension order, the exact loop InnerProduct runs. (The default build
// has no FMA contraction outside core/simd.cc, so this compiles to plain
// mulsd/addsd — the reference rounding.)
double ScalarScore(const double* coeffs, const double* cols,
                   size_t col_stride, size_t j, size_t d) {
  double acc = 0.0;
  for (size_t i = 0; i < d; ++i) acc += coeffs[i] * cols[i * col_stride + j];
  return acc;
}

// Column-major SoA matrix of `count` random vectors (dimension i at
// cols[i * stride + j]), with stride > count to catch kernels that assume
// the columns are packed.
struct ColMatrix {
  size_t count;
  size_t stride;
  std::vector<double> data;
};

ColMatrix MakeColumns(const Dataset& rows) {
  ColMatrix m;
  m.count = rows.size();
  m.stride = rows.size() + 3;
  m.data.assign(rows.dim() * m.stride, -1e300);  // poison the padding
  for (size_t j = 0; j < rows.size(); ++j) {
    for (size_t i = 0; i < rows.dim(); ++i) {
      m.data[i * m.stride + j] = rows.row(j)[i];
    }
  }
  return m;
}

TEST(ScoreTileColumnsTest, BitIdenticalToScalarAcrossShapes) {
  // Counts straddle every tile boundary (portable 16-column tiles, AVX2
  // 8, AVX-512 16) and the scalar remainder; row counts straddle the
  // 4-row tile height.
  const size_t counts[] = {1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 33, 64, 257};
  const size_t row_counts[] = {1, 2, 3, 4, 5, 7, 8, 9, 17};
  for (size_t d : {size_t{2}, size_t{3}, size_t{8}, size_t{16}, size_t{50}}) {
    const Dataset vecs = GenerateUniform(257, d, 900 + d);
    const Dataset coeffs = GenerateWeightsUniform(17, d, 901 + d);
    const ColMatrix cols = MakeColumns(vecs);
    std::vector<const double*> coeff_rows;
    for (size_t r = 0; r < coeffs.size(); ++r) {
      coeff_rows.push_back(coeffs.row(r).data());
    }
    for (size_t count : counts) {
      for (size_t num_rows : row_counts) {
        const size_t out_stride = count + 5;
        std::vector<double> out(num_rows * out_stride, -1e300);
        simd::ScoreTileColumns(cols.data.data(), cols.stride, count,
                               coeff_rows.data(), num_rows, d, out.data(),
                               out_stride);
        for (size_t r = 0; r < num_rows; ++r) {
          for (size_t j = 0; j < count; ++j) {
            const double expect = ScalarScore(coeff_rows[r], cols.data.data(),
                                              cols.stride, j, d);
            ASSERT_EQ(out[r * out_stride + j], expect)
                << "d=" << d << " count=" << count << " rows=" << num_rows
                << " r=" << r << " j=" << j;
          }
        }
      }
    }
  }
}

TEST(ScoreTileColumnsTest, BitIdenticalOnTieHeavyData) {
  // Lattice-snapped duplicated vectors: scores collide constantly, so any
  // rounding drift between tile and scalar shows up as a changed
  // comparison somewhere downstream. The kernel must still match exactly.
  const size_t d = 8;
  const Dataset vecs = MakeTieHeavy(128, d, 77);
  const Dataset coeffs = GenerateWeightsUniform(9, d, 78);
  const ColMatrix cols = MakeColumns(vecs);
  std::vector<const double*> coeff_rows;
  for (size_t r = 0; r < coeffs.size(); ++r) {
    coeff_rows.push_back(coeffs.row(r).data());
  }
  std::vector<double> out(coeffs.size() * vecs.size());
  simd::ScoreTileColumns(cols.data.data(), cols.stride, vecs.size(),
                         coeff_rows.data(), coeffs.size(), d, out.data(),
                         vecs.size());
  for (size_t r = 0; r < coeffs.size(); ++r) {
    for (size_t j = 0; j < vecs.size(); ++j) {
      ASSERT_EQ(out[r * vecs.size() + j],
                ScalarScore(coeff_rows[r], cols.data.data(), cols.stride, j, d))
          << "r=" << r << " j=" << j;
      // And the tiled score equals the row-major InnerProduct itself.
      ASSERT_EQ(out[r * vecs.size() + j],
                InnerProduct(coeffs.row(r), vecs.row(j)));
    }
  }
}

TEST(MinMaxDoublesTest, MatchesScalarAcrossLaneRemainders) {
  for (size_t count : {size_t{1}, size_t{2}, size_t{3}, size_t{7}, size_t{8},
                       size_t{9}, size_t{15}, size_t{16}, size_t{17},
                       size_t{31}, size_t{32}, size_t{33}, size_t{255},
                       size_t{256}, size_t{1000}}) {
    Dataset vals = GenerateUniform(count, 1, 500 + count);
    std::vector<double> v = vals.flat();
    // Plant duplicated extremes so ties at the min/max are exercised.
    if (count >= 4) {
      v[count / 2] = v[0];
      v[count - 1] = v[count / 3];
    }
    double expect_min = v[0], expect_max = v[0];
    for (double x : v) {
      expect_min = std::min(expect_min, x);
      expect_max = std::max(expect_max, x);
    }
    double got_min = 0.0, got_max = 0.0;
    simd::MinMaxDoubles(v.data(), count, &got_min, &got_max);
    EXPECT_EQ(got_min, expect_min) << "count=" << count;
    EXPECT_EQ(got_max, expect_max) << "count=" << count;
  }
}

// The scalar binning expression of TauIndex (tau_index.cc BinOf),
// replicated verbatim as the oracle.
uint32_t BinOfReference(double s, double lo, double inv, uint32_t bins) {
  const double t = (s - lo) * inv;
  if (!(t > 0.0)) return 0;
  const uint64_t b = static_cast<uint64_t>(t);
  return b >= bins ? bins - 1 : static_cast<uint32_t>(b);
}

TEST(BinDoublesTest, MatchesScalarBinOfIncludingClampCases) {
  for (uint32_t bins : {uint32_t{2}, uint32_t{7}, uint32_t{64},
                        uint32_t{1} << 20}) {
    for (size_t count : {size_t{1}, size_t{5}, size_t{8}, size_t{9},
                         size_t{16}, size_t{17}, size_t{257}}) {
      const double lo = 100.0;
      const double hi = 900.0;
      const double inv = bins / (hi - lo);
      Dataset raw = GenerateUniform(count, 1, 600 + count + bins);
      std::vector<double> scores = raw.flat();
      // Map into [lo - margin, hi + margin] so below-lo (bin 0) and
      // above-hi (clamp to bins - 1) inputs both occur, then pin the
      // edge cases explicitly.
      for (double& s : scores) s = lo - 50.0 + s / 10.0;
      scores[0] = lo;                    // t == 0 -> bin 0
      if (count > 1) scores[1] = hi;     // t == bins -> clamp
      if (count > 2) scores[2] = lo - 1; // t < 0 -> bin 0
      if (count > 3) scores[3] = hi + 1e6;  // far overshoot -> clamp
      std::vector<uint32_t> out(count, 0xdeadbeef);
      simd::BinDoubles(scores.data(), count, lo, inv, bins, out.data());
      for (size_t j = 0; j < count; ++j) {
        ASSERT_EQ(out[j], BinOfReference(scores[j], lo, inv, bins))
            << "bins=" << bins << " count=" << count << " j=" << j;
      }
      // Degenerate range (all scores equal): inv == 0, everything bins 0.
      std::vector<double> flat_scores(count, lo);
      simd::BinDoubles(flat_scores.data(), count, lo, 0.0, bins, out.data());
      for (size_t j = 0; j < count; ++j) {
        ASSERT_EQ(out[j], 0u) << "bins=" << bins << " j=" << j;
      }
    }
  }
}

// ---------------------------------------------------------------- τ build

// The tiled build (ScoreTileColumns over 8-weight groups + SIMD binning +
// histogram-guided selection prune) must produce exactly the thresholds
// and histograms of the definition: per weight, sort all n scalar scores
// and take the first k_cap; bin every score with BinOfReference and
// prefix-sum. Remainder shapes (n, m not multiples of any tile or group
// width) and tie-heavy scores are the adversarial cases for the prune.
void ExpectBuildMatchesScalarOracle(const Dataset& points,
                                    const Dataset& weights,
                                    const TauIndexOptions& options) {
  const auto tau = TauIndex::Build(points, weights, options).value();
  const size_t n = points.size();
  const size_t m = weights.size();
  const size_t bins = tau.bins();
  for (size_t w = 0; w < m; ++w) {
    std::vector<double> scores(n);
    for (size_t j = 0; j < n; ++j) {
      scores[j] = InnerProduct(weights.row(w), points.row(j));
    }
    double mn = scores[0], mx = scores[0];
    for (double s : scores) {
      mn = std::min(mn, s);
      mx = std::max(mx, s);
    }
    ASSERT_EQ(tau.score_max()[w], mx) << "w=" << w;
    const double inv = mx > mn ? bins / (mx - mn) : 0.0;
    std::vector<uint32_t> hist(bins, 0);
    for (double s : scores) ++hist[BinOfReference(s, mn, inv, bins)];
    uint32_t running = 0;
    for (size_t b = 0; b < bins; ++b) {
      running += hist[b];
      ASSERT_EQ(tau.hist_prefix()[w * bins + b], running)
          << "w=" << w << " b=" << b;
    }
    std::sort(scores.begin(), scores.end());
    for (size_t k = 1; k <= tau.k_cap(); ++k) {
      ASSERT_EQ(tau.Threshold(w, k), scores[k - 1])
          << "w=" << w << " k=" << k;
    }
  }
}

TEST(TauBuildTest, TiledBuildMatchesScalarSortOracle) {
  TauIndexOptions options;
  options.k_max = 13;
  options.bins = 19;
  options.threads = 1;
  for (size_t d : {size_t{3}, size_t{8}}) {
    // n=257, m=37: remainders for the 4096-score chunk, the 8-weight
    // build group, and every SIMD lane width.
    ExpectBuildMatchesScalarOracle(GenerateUniform(257, d, 30 + d),
                                   GenerateWeightsUniform(37, d, 31 + d),
                                   options);
  }
}

TEST(TauBuildTest, TiledBuildMatchesOracleOnTieHeavyScores) {
  TauIndexOptions options;
  options.k_max = 20;
  options.bins = 8;
  options.threads = 1;
  // Lattice-snapped duplicated points: masses of exactly-equal scores
  // sit on bin edges and straddle the k_cap cut — the selection prune
  // must still reproduce the full sort.
  ExpectBuildMatchesScalarOracle(MakeTieHeavy(200, 4, 41),
                                 GenerateWeightsUniform(25, 4, 42), options);
}

TEST(TauBuildTest, MultiThreadedBuildIsIdenticalToSingleThreaded) {
  const Dataset points = GenerateUniform(301, 8, 55);
  const Dataset weights = GenerateWeightsUniform(43, 8, 56);
  TauIndexOptions options;
  options.k_max = 10;
  options.bins = 16;
  options.threads = 1;
  const auto one = TauIndex::Build(points, weights, options).value();
  options.threads = 3;
  const auto three = TauIndex::Build(points, weights, options).value();
  EXPECT_EQ(one.tau(), three.tau());
  EXPECT_EQ(one.score_max(), three.score_max());
  EXPECT_EQ(one.hist_prefix(), three.hist_prefix());
}

// ------------------------------------------------------- batched queries

class BatchEquivalence : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    const bool tie_heavy = GetParam();
    const size_t n = 384, m = 60, d = 8;
    points_ = tie_heavy ? MakeTieHeavy(n, d, 21) : GenerateUniform(n, d, 21);
    weights_ = GenerateWeightsUniform(m, d, 22);
    queries_ = Dataset(d);
    for (size_t qi = 0; qi < 9; ++qi) {  // odd count: query-tile remainder
      queries_.AppendUnchecked(points_.row(qi * 41 % n));
    }

    GirOptions options;
    options.scan_mode = ScanMode::kBlocked;
    blocked_.emplace(GirIndex::Build(points_, weights_, options).value());
    tau_.emplace(GirIndex::Build(points_, weights_, options).value());
    tau_->AttachTauIndex(std::make_shared<const TauIndex>(
        TauIndex::Build(points_, weights_).value()));
    tau_->set_scan_mode(ScanMode::kTauIndex);
  }

  void ExpectBatchMatchesPerQuery(const GirIndex& index, size_t k) {
    const auto rtk = index.ReverseTopKBatch(queries_, k);
    const auto rkr = index.ReverseKRanksBatch(queries_, k);
    ASSERT_EQ(rtk.size(), queries_.size());
    ASSERT_EQ(rkr.size(), queries_.size());
    ThreadPool pool(3);
    const auto rtk_par = index.ReverseTopKBatch(queries_, k, nullptr, &pool);
    const auto rkr_par = index.ReverseKRanksBatch(queries_, k, nullptr, &pool);
    ASSERT_EQ(rtk_par.size(), queries_.size());
    ASSERT_EQ(rkr_par.size(), queries_.size());
    for (size_t qi = 0; qi < queries_.size(); ++qi) {
      const auto expect_rtk = index.ReverseTopK(queries_.row(qi), k);
      EXPECT_EQ(rtk[qi], expect_rtk) << "q=" << qi << " k=" << k;
      EXPECT_EQ(rtk_par[qi], expect_rtk) << "q=" << qi << " k=" << k;
      const auto expect_rkr = index.ReverseKRanks(queries_.row(qi), k);
      EXPECT_EQ(rkr[qi], expect_rkr) << "q=" << qi << " k=" << k;
      EXPECT_EQ(rkr_par[qi], expect_rkr) << "q=" << qi << " k=" << k;
    }
  }

  Dataset points_{1};
  Dataset weights_{1};
  Dataset queries_{1};
  std::optional<GirIndex> blocked_;
  std::optional<GirIndex> tau_;
};

TEST_P(BatchEquivalence, BlockedBatchMatchesPerQueryDispatch) {
  for (size_t k : {size_t{1}, size_t{5}, size_t{25}}) {
    ExpectBatchMatchesPerQuery(*blocked_, k);
  }
}

TEST_P(BatchEquivalence, TauBatchMatchesPerQueryDispatch) {
  // k=5 stays inside the τ vector's reach; k=100 exceeds k_cap, forcing
  // the batch path through the blocked fallback while τ still handles
  // the histogram bracketing.
  for (size_t k : {size_t{5}, size_t{100}}) {
    ExpectBatchMatchesPerQuery(*tau_, k);
  }
}

INSTANTIATE_TEST_SUITE_P(SmoothAndTies, BatchEquivalence, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? std::string("Ties")
                                             : std::string("Smooth");
                         });

}  // namespace
}  // namespace gir
