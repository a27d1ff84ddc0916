// Property tests for the preference-side τ-index: reverse top-k and
// reverse k-ranks under ScanMode::kTauIndex must be bit-identical to the
// naive oracle and to both scan engines across dimensions, tie-heavy
// data and k at/above the K_max boundary — for the sequential, parallel
// and batched entry points — plus serialization round-trip and
// corrupt/truncated-file rejection for the index_io format.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/naive.h"
#include "core/rank.h"
#include "core/thread_pool.h"
#include "data/generators.h"
#include "data/weights.h"
#include "grid/gir_queries.h"
#include "grid/index_io.h"
#include "grid/tau_index.h"
#include "test_util.h"

namespace gir {
namespace {

using testing_util::MakeTieHeavy;

struct Case {
  size_t d;
  bool tie_heavy;
  size_t k_max;
};

std::string CaseName(const ::testing::TestParamInfo<Case>& info) {
  const Case& c = info.param;
  return "d" + std::to_string(c.d) + (c.tie_heavy ? "Ties" : "Smooth") +
         "Kmax" + std::to_string(c.k_max);
}

class TauEquivalence : public ::testing::TestWithParam<Case> {
 protected:
  static constexpr size_t kN = 384;
  static constexpr size_t kM = 60;

  void SetUp() override {
    const Case& c = GetParam();
    points_ = c.tie_heavy ? MakeTieHeavy(kN, c.d, 11)
                          : GenerateUniform(kN, c.d, 11);
    weights_ = GenerateWeightsUniform(kM, c.d, 12);

    GirOptions serial_opts;
    GirOptions blocked_opts;
    blocked_opts.scan_mode = ScanMode::kBlocked;
    GirOptions tau_opts;
    tau_opts.scan_mode = ScanMode::kTauIndex;
    tau_opts.tau.k_max = c.k_max;
    // Few bins so the histogram leaves a real unresolved band for the
    // k-ranks fallback to exercise.
    tau_opts.tau.bins = 8;
    tau_opts.tau.threads = 2;
    serial_ = GirIndex::Build(points_, weights_, serial_opts).value();
    blocked_ = GirIndex::Build(points_, weights_, blocked_opts).value();
    tau_ = GirIndex::Build(points_, weights_, tau_opts).value();
  }

  std::vector<std::vector<double>> Queries() const {
    std::vector<std::vector<double>> qs;
    for (size_t qi : {size_t{0}, size_t{7}, size_t{128}}) {
      qs.emplace_back(points_.row(qi).begin(), points_.row(qi).end());
    }
    // A point dominated by much of the data (near-max corner) and one
    // dominating most of it (near zero).
    qs.emplace_back(points_.dim(), 9500.0);
    qs.emplace_back(points_.dim(), 3.0);
    return qs;
  }

  /// k values straddling every τ regime: fully indexed, the K_max
  /// boundary, the fallback band, and k > |P|.
  std::vector<size_t> TopKValues() const {
    const size_t k_max = GetParam().k_max;
    return {1, k_max - 1, k_max, k_max + 1, 100, kN + 5};
  }

  Dataset points_{1};
  Dataset weights_{1};
  std::optional<GirIndex> serial_;
  std::optional<GirIndex> blocked_;
  std::optional<GirIndex> tau_;
};

TEST_P(TauEquivalence, ReverseTopKMatchesOracleAndBothEngines) {
  ASSERT_NE(tau_->tau_index(), nullptr);
  for (const auto& q : Queries()) {
    for (size_t k : TopKValues()) {
      const ReverseTopKResult expected =
          NaiveReverseTopK(points_, weights_, q, k);
      EXPECT_EQ(tau_->ReverseTopK(q, k), expected) << "k=" << k;
      EXPECT_EQ(serial_->ReverseTopK(q, k), expected) << "k=" << k;
      EXPECT_EQ(blocked_->ReverseTopK(q, k), expected) << "k=" << k;
    }
  }
}

TEST_P(TauEquivalence, ReverseKRanksMatchesOracleAndBothEngines) {
  for (const auto& q : Queries()) {
    for (size_t k : {size_t{1}, size_t{5}, size_t{25}}) {
      const ReverseKRanksResult expected =
          NaiveReverseKRanks(points_, weights_, q, k);
      EXPECT_EQ(tau_->ReverseKRanks(q, k), expected) << "k=" << k;
      EXPECT_EQ(serial_->ReverseKRanks(q, k), expected) << "k=" << k;
      EXPECT_EQ(blocked_->ReverseKRanks(q, k), expected) << "k=" << k;
    }
  }
}

TEST_P(TauEquivalence, ParallelTauMatchesSerial) {
  ThreadPool pool(3);
  for (const auto& q : Queries()) {
    const Dataset one = testing_util::OneRow(q);
    EXPECT_EQ(tau_->ReverseTopKBatch(one, 20, nullptr, &pool)[0],
              serial_->ReverseTopK(q, 20));
    EXPECT_EQ(tau_->ReverseKRanksBatch(one, 10, nullptr, &pool)[0],
              serial_->ReverseKRanks(q, 10));
  }
}

TEST_P(TauEquivalence, BatchedQueriesMatchSingleQuery) {
  Dataset queries(points_.dim());
  for (const auto& q : Queries()) queries.AppendUnchecked(q);
  const auto rtk = tau_->ReverseTopKBatch(queries, 12);
  const auto rkr = tau_->ReverseKRanksBatch(queries, 8);
  ASSERT_EQ(rtk.size(), queries.size());
  ASSERT_EQ(rkr.size(), queries.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    EXPECT_EQ(rtk[qi], serial_->ReverseTopK(queries.row(qi), 12)) << qi;
    EXPECT_EQ(rkr[qi], serial_->ReverseKRanks(queries.row(qi), 8)) << qi;
  }
}

TEST_P(TauEquivalence, BoundRankBracketsTrueRankAndPinsSmallRanks) {
  const TauIndex& tau = *tau_->tau_index();
  for (const auto& q : Queries()) {
    for (size_t w = 0; w < weights_.size(); ++w) {
      const double score = InnerProduct(weights_.row(w), q);
      const int64_t rank = RankOfQuery(points_, weights_.row(w), q);
      const TauRankBounds bounds = tau.BoundRank(w, score);
      EXPECT_LE(bounds.lo, rank) << "w=" << w;
      EXPECT_GE(bounds.hi, rank) << "w=" << w;
      if (rank < static_cast<int64_t>(tau.k_cap())) {
        // Ranks below the τ vector's reach are exact by construction.
        EXPECT_TRUE(bounds.exact()) << "w=" << w << " rank=" << rank;
        EXPECT_EQ(bounds.lo, rank) << "w=" << w;
      }
    }
  }
}

std::vector<Case> AllCases() {
  std::vector<Case> cases;
  for (size_t d : {2, 4, 16, 50}) {
    for (bool ties : {false, true}) {
      for (size_t k_max : {size_t{8}, size_t{64}}) {
        cases.push_back(Case{d, ties, k_max});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, TauEquivalence,
                         ::testing::ValuesIn(AllCases()), CaseName);

// ------------------------------------------------------------- semantics

TEST(TauIndexTest, CanAnswerTopKCoversExactlyTheIndexedBand) {
  Dataset points = GenerateUniform(100, 4, 51);
  Dataset weights = GenerateWeightsUniform(10, 4, 52);
  TauIndexOptions options;
  options.k_max = 16;
  auto tau = TauIndex::Build(points, weights, options).value();
  EXPECT_EQ(tau.k_cap(), 16u);
  EXPECT_TRUE(tau.CanAnswerTopK(0));
  EXPECT_TRUE(tau.CanAnswerTopK(1));
  EXPECT_TRUE(tau.CanAnswerTopK(16));
  EXPECT_FALSE(tau.CanAnswerTopK(17));
  EXPECT_FALSE(tau.CanAnswerTopK(100));
  EXPECT_TRUE(tau.CanAnswerTopK(101));  // k > |P|: every weight qualifies

  // k_max above |P| clamps to |P|, closing the fallback band entirely.
  options.k_max = 1000;
  auto clamped = TauIndex::Build(points, weights, options).value();
  EXPECT_EQ(clamped.k_cap(), 100u);
  EXPECT_TRUE(clamped.CanAnswerTopK(100));
  EXPECT_TRUE(clamped.CanAnswerTopK(101));
}

TEST(TauIndexTest, ThresholdsAreExactOrderStatistics) {
  Dataset points = GenerateUniform(200, 3, 61);
  Dataset weights = GenerateWeightsUniform(7, 3, 62);
  TauIndexOptions options;
  options.k_max = 5;
  auto tau = TauIndex::Build(points, weights, options).value();
  for (size_t w = 0; w < weights.size(); ++w) {
    std::vector<double> scores;
    scores.reserve(points.size());
    for (size_t j = 0; j < points.size(); ++j) {
      scores.push_back(InnerProduct(weights.row(w), points.row(j)));
    }
    std::sort(scores.begin(), scores.end());
    for (size_t k = 1; k <= tau.k_cap(); ++k) {
      EXPECT_EQ(tau.Threshold(w, k), scores[k - 1]) << "w=" << w << " k=" << k;
    }
  }
}

TEST(TauIndexTest, BuildRejectsInvalidArguments) {
  Dataset points = GenerateUniform(50, 3, 71);
  Dataset weights = GenerateWeightsUniform(5, 3, 72);
  Dataset empty(3);
  EXPECT_FALSE(TauIndex::Build(empty, weights).ok());
  Dataset wrong_dim = GenerateWeightsUniform(5, 4, 72);
  EXPECT_FALSE(TauIndex::Build(points, wrong_dim).ok());
  TauIndexOptions bad_k;
  bad_k.k_max = 0;
  EXPECT_FALSE(TauIndex::Build(points, weights, bad_k).ok());
  TauIndexOptions bad_bins;
  bad_bins.bins = 1;
  EXPECT_FALSE(TauIndex::Build(points, weights, bad_bins).ok());
}

TEST(TauIndexTest, AttachRejectsShapeMismatch) {
  Dataset points = GenerateUniform(80, 3, 81);
  Dataset weights = GenerateWeightsUniform(6, 3, 82);
  auto index = GirIndex::Build(points, weights).value();
  EXPECT_FALSE(index.AttachTauIndex(nullptr).ok());

  Dataset other_weights = GenerateWeightsUniform(7, 3, 83);
  auto mismatched = TauIndex::Build(points, other_weights).value();
  EXPECT_FALSE(
      index
          .AttachTauIndex(
              std::make_shared<const TauIndex>(std::move(mismatched)))
          .ok());

  auto matching = TauIndex::Build(points, weights).value();
  EXPECT_TRUE(
      index
          .AttachTauIndex(std::make_shared<const TauIndex>(std::move(matching)))
          .ok());
  EXPECT_NE(index.tau_index(), nullptr);
}

// ------------------------------------------------------------ persistence

class TauIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    points_ = MakeTieHeavy(256, 5, 91);
    weights_ = GenerateWeightsUniform(40, 5, 92);
    TauIndexOptions options;
    options.k_max = 12;
    options.bins = 8;
    tau_ = TauIndex::Build(points_, weights_, options).value();
    // Per test and per process: ctest -j runs every case as its own
    // process, so a shared name would let one case clobber another's file.
    path_ = ::testing::TempDir() + "tau_io_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            "_" + std::to_string(::getpid()) + ".bin";
    ASSERT_TRUE(SaveTauIndex(path_, *tau_).ok());
  }

  void TearDown() override { std::remove(path_.c_str()); }

  std::vector<char> ReadAll() const {
    std::ifstream in(path_, std::ios::binary);
    return std::vector<char>((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  }

  void WriteAll(const std::vector<char>& bytes) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  Dataset points_{1};
  Dataset weights_{1};
  std::optional<TauIndex> tau_;
  std::string path_;
};

TEST_F(TauIoTest, RoundTripPreservesEveryComponentAndAllResults) {
  auto loaded = LoadTauIndex(path_, weights_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().k_cap(), tau_->k_cap());
  EXPECT_EQ(loaded.value().bins(), tau_->bins());
  EXPECT_EQ(loaded.value().num_points(), tau_->num_points());
  EXPECT_EQ(loaded.value().tau(), tau_->tau());
  EXPECT_EQ(loaded.value().score_max(), tau_->score_max());
  EXPECT_EQ(loaded.value().hist_prefix(), tau_->hist_prefix());

  // Query through a GirIndex with the loaded τ attached: bit-identical to
  // the oracle, same as the freshly built index.
  auto index = GirIndex::Build(points_, weights_).value();
  ASSERT_TRUE(index
                  .AttachTauIndex(std::make_shared<const TauIndex>(
                      std::move(loaded).value()))
                  .ok());
  index.set_scan_mode(ScanMode::kTauIndex);
  for (size_t qi : {size_t{3}, size_t{100}}) {
    ConstRow q = points_.row(qi);
    EXPECT_EQ(index.ReverseTopK(q, 10),
              NaiveReverseTopK(points_, weights_, q, 10));
    EXPECT_EQ(index.ReverseKRanks(q, 5),
              NaiveReverseKRanks(points_, weights_, q, 5));
  }
}

TEST_F(TauIoTest, RejectsBadMagic) {
  auto bytes = ReadAll();
  bytes[3] ^= 0x5a;
  WriteAll(bytes);
  const auto loaded = LoadTauIndex(path_, weights_);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST_F(TauIoTest, RejectsTruncation) {
  const auto bytes = ReadAll();
  // Truncations at several depths: inside the magic, the header, and the
  // payload arrays.
  for (size_t keep : {size_t{4}, size_t{20}, bytes.size() / 2,
                      bytes.size() - 1}) {
    WriteAll(std::vector<char>(bytes.begin(), bytes.begin() + keep));
    const auto loaded = LoadTauIndex(path_, weights_);
    EXPECT_FALSE(loaded.ok()) << "keep=" << keep;
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption)
        << "keep=" << keep;
  }
}

TEST_F(TauIoTest, RejectsTrailingGarbage) {
  auto bytes = ReadAll();
  bytes.push_back('x');
  WriteAll(bytes);
  EXPECT_FALSE(LoadTauIndex(path_, weights_).ok());
}

TEST_F(TauIoTest, RejectsCorruptedPayloadInvariants) {
  const auto pristine = ReadAll();
  // Header is magic(8) + k_cap(4) + bins(4) + dim(4) + |W|(8) + |P|(8).
  const size_t header = 8 + 4 + 4 + 4 + 8 + 8;

  // Zero k_cap: parameter validation.
  auto bytes = pristine;
  bytes[8] = bytes[9] = bytes[10] = bytes[11] = 0;
  WriteAll(bytes);
  EXPECT_FALSE(LoadTauIndex(path_, weights_).ok());

  // Scramble the first τ column so the per-weight thresholds are no
  // longer sorted: invariant validation.
  bytes = pristine;
  const size_t m = weights_.size();
  const size_t tau0 = header;                         // τ_1 of weight 0
  const size_t tau1 = header + m * sizeof(double);    // τ_2 of weight 0
  for (size_t b = 0; b < sizeof(double); ++b) {
    std::swap(bytes[tau0 + b], bytes[tau1 + b]);
  }
  // Only reject if the swap actually broke the order (τ_1 < τ_2 strictly
  // fails on ties, where the swap is a no-op semantically).
  if (tau_->Threshold(0, 1) != tau_->Threshold(0, 2)) {
    WriteAll(bytes);
    EXPECT_FALSE(LoadTauIndex(path_, weights_).ok());
  }

  // Histogram prefix that no longer sums to |P|.
  bytes = pristine;
  const size_t hist_off =
      header + (tau_->tau().size() + m) * sizeof(double);
  bytes[hist_off + (tau_->bins() - 1) * sizeof(uint32_t)] ^= 0x01;
  WriteAll(bytes);
  EXPECT_FALSE(LoadTauIndex(path_, weights_).ok());
}

TEST_F(TauIoTest, RejectsMismatchedWeightSet) {
  Dataset fewer = GenerateWeightsUniform(10, 5, 92);
  EXPECT_FALSE(LoadTauIndex(path_, fewer).ok());
  Dataset wrong_dim = GenerateWeightsUniform(40, 4, 92);
  EXPECT_FALSE(LoadTauIndex(path_, wrong_dim).ok());
}

}  // namespace
}  // namespace gir
