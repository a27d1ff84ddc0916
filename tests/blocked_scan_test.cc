// Property tests for the blocked, weight-batched scan engine: results and
// ranks must be identical to the weight-at-a-time scan and the naive
// oracle across dimensions, bound modes, partitioners (uniform and
// quantile-adaptive) and tie-heavy data, for the sequential, parallel and
// batched entry points.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/naive.h"
#include "core/simd.h"
#include "core/thread_pool.h"
#include "data/generators.h"
#include "data/weights.h"
#include "grid/adaptive_grid.h"
#include "grid/blocked_scan.h"
#include "grid/gir_queries.h"
#include "test_util.h"

namespace gir {
namespace {

using testing_util::MakeTieHeavy;
using testing_util::MakeWorkload;
using testing_util::Workload;

struct Case {
  size_t d;
  BoundMode mode;
  bool adaptive;
  bool tie_heavy;
};

std::string CaseName(const ::testing::TestParamInfo<Case>& info) {
  const Case& c = info.param;
  std::string name = "d" + std::to_string(c.d);
  switch (c.mode) {
    case BoundMode::kUpperFirst:
      name += "UpperFirst";
      break;
    case BoundMode::kFused:
      name += "Fused";
      break;
    case BoundMode::kExactWeight:
      name += "ExactWeight";
      break;
  }
  name += c.adaptive ? "Adaptive" : "Uniform";
  name += c.tie_heavy ? "Ties" : "Smooth";
  return name;
}

class BlockedEquivalence : public ::testing::TestWithParam<Case> {
 protected:
  void SetUp() override {
    const Case& c = GetParam();
    const size_t n = 384;
    const size_t m = 60;
    points_ = c.tie_heavy ? MakeTieHeavy(n, c.d, 11)
                          : GenerateUniform(n, c.d, 11);
    weights_ = GenerateWeightsUniform(m, c.d, 12);

    GirOptions serial_opts;
    serial_opts.bound_mode = c.mode;
    GirOptions blocked_opts = serial_opts;
    blocked_opts.scan_mode = ScanMode::kBlocked;
    if (c.adaptive) {
      serial_ = BuildAdaptiveGir(points_, weights_, serial_opts).value();
      blocked_ = BuildAdaptiveGir(points_, weights_, blocked_opts).value();
    } else {
      serial_ = GirIndex::Build(points_, weights_, serial_opts).value();
      blocked_ = GirIndex::Build(points_, weights_, blocked_opts).value();
    }
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

  Dataset points_{1};
  Dataset weights_{1};
  std::optional<GirIndex> serial_;
  std::optional<GirIndex> blocked_;
};

TEST_P(BlockedEquivalence, ReverseTopKMatchesSerialAndOracle) {
  for (const auto& q : Queries()) {
    for (size_t k : {size_t{1}, size_t{10}, size_t{100}}) {
      const ReverseTopKResult expected =
          NaiveReverseTopK(points_, weights_, q, k);
      EXPECT_EQ(serial_->ReverseTopK(q, k), expected) << "k=" << k;
      EXPECT_EQ(blocked_->ReverseTopK(q, k), expected) << "k=" << k;
    }
  }
}

TEST_P(BlockedEquivalence, ReverseKRanksMatchesSerialAndOracle) {
  for (const auto& q : Queries()) {
    for (size_t k : {size_t{1}, size_t{5}, size_t{25}}) {
      const ReverseKRanksResult expected =
          NaiveReverseKRanks(points_, weights_, q, k);
      EXPECT_EQ(serial_->ReverseKRanks(q, k), expected) << "k=" << k;
      EXPECT_EQ(blocked_->ReverseKRanks(q, k), expected) << "k=" << k;
    }
  }
}

TEST_P(BlockedEquivalence, ParallelBlockedMatchesSerial) {
  ThreadPool pool(3);
  const auto q = Queries()[1];
  const Dataset one = testing_util::OneRow(q);
  EXPECT_EQ(blocked_->ReverseTopKBatch(one, 20, nullptr, &pool)[0],
            serial_->ReverseTopK(q, 20));
  EXPECT_EQ(blocked_->ReverseKRanksBatch(one, 10, nullptr, &pool)[0],
            serial_->ReverseKRanks(q, 10));
}

TEST_P(BlockedEquivalence, BatchedQueriesMatchSingleQuery) {
  Dataset queries(points_.dim());
  for (const auto& q : Queries()) queries.AppendUnchecked(q);
  const auto rtk = blocked_->ReverseTopKBatch(queries, 12);
  const auto rkr = blocked_->ReverseKRanksBatch(queries, 8);
  ASSERT_EQ(rtk.size(), queries.size());
  ASSERT_EQ(rkr.size(), queries.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    EXPECT_EQ(rtk[qi], serial_->ReverseTopK(queries.row(qi), 12)) << qi;
    EXPECT_EQ(rkr[qi], serial_->ReverseKRanks(queries.row(qi), 8)) << qi;
  }
}

std::vector<Case> AllCases() {
  std::vector<Case> cases;
  for (size_t d : {2, 4, 16, 50}) {
    for (BoundMode mode : {BoundMode::kExactWeight, BoundMode::kUpperFirst}) {
      for (bool adaptive : {false, true}) {
        for (bool ties : {false, true}) {
          cases.push_back(Case{d, mode, adaptive, ties});
        }
      }
    }
  }
  // One fused-mode spot check (fused and upper-first share bound values).
  cases.push_back(Case{4, BoundMode::kFused, false, true});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, BlockedEquivalence,
                         ::testing::ValuesIn(AllCases()), CaseName);

// ------------------------------------------------------------ raw engine

TEST(BlockedScannerTest, RanksMatchGInTopKUnderAnyThreshold) {
  Workload wl = MakeWorkload(300, 24, 6, 21);
  GirOptions opts;
  auto index = GirIndex::Build(wl.points, wl.weights, opts).value();
  BlockedScanner scanner(wl.points, index.point_cells(), wl.weights,
                         index.weight_cells(), index.grid(),
                         opts.bound_mode);
  const auto qctx = scanner.MakeQueryContext(wl.points.row(5), true);
  GinContext ctx{&wl.points, &index.point_cells(), &index.grid(),
                 opts.bound_mode};
  GinScratch gin_scratch;
  BlockedScratch scratch;
  const int64_t cap = static_cast<int64_t>(wl.points.size()) + 1;
  for (int64_t threshold : {int64_t{1}, int64_t{13}, cap}) {
    std::vector<int64_t> thresholds(wl.weights.size(), threshold);
    std::vector<int64_t> ranks(wl.weights.size());
    scanner.RankBatch(wl.points.row(5), qctx, 0, wl.weights.size(),
                      thresholds.data(), ranks.data(), scratch, nullptr);
    for (size_t wi = 0; wi < wl.weights.size(); ++wi) {
      const int64_t expected =
          GInTopK(ctx, wl.weights.row(wi), index.weight_cells().row(wi),
                  wl.points.row(5), threshold, nullptr, gin_scratch);
      EXPECT_EQ(ranks[wi], expected) << "w=" << wi << " thr=" << threshold;
    }
  }
}

// bound_evaluations follows one rule on every blocked entry point
// (core/counters.h): the single-query path and a one-row query block do
// the same work, so they report the same ranks and the same counters —
// including when the Domin buffer skips points inside streamed blocks.
TEST(BlockedScannerTest, SingleQueryAndOneRowBlockReportTheSameCounters) {
  Workload wl = MakeWorkload(600, 40, 4, 41);
  const size_t m = wl.weights.size();
  // Dominated by every point below it in all four dimensions (~40%).
  const std::vector<double> q(4, 8000.0);
  for (BoundMode mode : {BoundMode::kUpperFirst, BoundMode::kFused,
                         BoundMode::kExactWeight}) {
    SCOPED_TRACE(static_cast<int>(mode));
    GirOptions opts;
    opts.bound_mode = mode;
    auto index = GirIndex::Build(wl.points, wl.weights, opts).value();
    BlockedScanner scanner(wl.points, index.point_cells(), wl.weights,
                           index.weight_cells(), index.grid(), mode);
    const auto qctx = scanner.MakeQueryContext(q, true);
    ASSERT_GT(qctx.dominator_count, 0);
    const int64_t cap = static_cast<int64_t>(wl.points.size()) + 1;
    for (int64_t threshold : {qctx.dominator_count + 20, cap}) {
      std::vector<int64_t> thresholds(m, threshold);
      std::vector<int64_t> single(m), multi(m);
      BlockedScratch scratch;
      QueryStats single_stats, multi_stats;
      scanner.RankBatch(q, qctx, 0, m, thresholds.data(), single.data(),
                        scratch, &single_stats);
      scanner.PrepareBatch(0, m, scratch);
      const ConstRow rows[] = {ConstRow(q)};
      scanner.RankPreparedMulti(rows, &qctx, 1, 0, m, thresholds.data(),
                                multi.data(), scratch, &multi_stats);
      EXPECT_EQ(single, multi) << "threshold " << threshold;
      EXPECT_EQ(single_stats.ToString(), multi_stats.ToString())
          << "threshold " << threshold;
      EXPECT_GT(single_stats.points_dominated, 0u);
      EXPECT_GT(single_stats.bound_evaluations, 0u);
    }
  }
}

TEST(BlockedScannerTest, DominatorContextFindsExactDominators) {
  Workload wl = MakeWorkload(250, 4, 5, 31);
  GirOptions opts;
  auto index = GirIndex::Build(wl.points, wl.weights, opts).value();
  BlockedScanner scanner(wl.points, index.point_cells(), wl.weights,
                         index.weight_cells(), index.grid(),
                         opts.bound_mode);
  std::vector<double> q(5, 6000.0);
  const auto qctx = scanner.MakeQueryContext(q, true);
  int64_t expected = 0;
  for (size_t j = 0; j < wl.points.size(); ++j) {
    const bool dom = Dominates(wl.points.row(j), q);
    EXPECT_EQ(qctx.dominated[j] != 0, dom) << j;
    expected += dom ? 1 : 0;
  }
  EXPECT_EQ(qctx.dominator_count, expected);
  EXPECT_GT(expected, 0);  // q sits well inside the value range

  const auto off = scanner.MakeQueryContext(q, false);
  EXPECT_TRUE(off.dominated.empty());
  EXPECT_EQ(off.dominator_count, 0);
}

// ------------------------------------------------------------- SoA mirror

TEST(ApproxVectorsSoaTest, ColumnsMirrorRowsWithZeroPadding) {
  Dataset ds = GenerateUniform(100, 7, 41);
  auto part = Partitioner::Uniform(32, 10000.0).value();
  ApproxVectors av = ApproxVectors::Build(ds, part);
  EXPECT_GE(av.column_stride(), av.size());
  EXPECT_EQ(av.column_stride() % ApproxVectors::kColumnPad, 0u);
  for (size_t i = 0; i < av.dim(); ++i) {
    const uint8_t* col = av.column(i);
    for (size_t j = 0; j < av.size(); ++j) {
      EXPECT_EQ(col[j], av.row(j)[i]);
    }
    for (size_t j = av.size(); j < av.column_stride(); ++j) {
      EXPECT_EQ(col[j], 0);
    }
  }
  EXPECT_EQ(av.SoaMemoryBytes(), av.dim() * av.column_stride());
}

// ------------------------------------------------------------ SIMD kernels

TEST(SimdKernelTest, ScaledBytesMatchesScalarReference) {
  std::vector<uint8_t> cells(203);
  for (size_t j = 0; j < cells.size(); ++j) {
    cells[j] = static_cast<uint8_t>((j * 37 + 11) % 256);
  }
  std::vector<double> acc(cells.size(), 0.5);
  std::vector<double> ref = acc;
  simd::AccumulateScaledBytes(cells.data(), 0.125, acc.data(), cells.size());
  for (size_t j = 0; j < cells.size(); ++j) {
    ref[j] += 0.125 * static_cast<double>(cells[j]);
  }
  // One fused-multiply-add of exactly representable inputs: bitwise equal.
  EXPECT_EQ(acc, ref);
}

TEST(SimdKernelTest, LookupBoundsMatchesScalarReference) {
  std::vector<uint8_t> cells(131);
  for (size_t j = 0; j < cells.size(); ++j) {
    cells[j] = static_cast<uint8_t>((j * 53 + 5) % 32);
  }
  std::vector<double> tlo(32), thi(32);
  for (size_t c = 0; c < 32; ++c) {
    tlo[c] = 0.25 * static_cast<double>(c);
    thi[c] = 0.25 * static_cast<double>(c + 1);
  }
  std::vector<double> lo(cells.size(), 1.0), hi(cells.size(), 2.0);
  std::vector<double> rlo = lo, rhi = hi;
  simd::AccumulateLookupBounds(cells.data(), tlo.data(), thi.data(),
                               lo.data(), hi.data(), cells.size());
  for (size_t j = 0; j < cells.size(); ++j) {
    rlo[j] += tlo[cells[j]];
    rhi[j] += thi[cells[j]];
  }
  EXPECT_EQ(lo, rlo);
  EXPECT_EQ(hi, rhi);
}

// ------------------------------------------------- stats bugfix coverage

// q is dominated by >= k points, so Algorithm 2 aborts early; the stats
// must report the number of weights whose scans actually ran, not zero
// (the pre-fix behaviour) and not |W|.
TEST(QueryStatsTest, AbortedReverseTopKCountsEvaluatedWeights) {
  auto points =
      Dataset::FromRows({{1.0, 1.0}, {2.0, 2.0}, {9.0, 9.0}, {8.0, 7.0}})
          .value();
  auto weights = Dataset::FromRows({{0.5, 0.5},
                                    {0.25, 0.75},
                                    {0.75, 0.25},
                                    {0.4, 0.6}})
                     .value();
  GirOptions opts;
  auto index = GirIndex::Build(points, weights, opts).value();
  std::vector<double> q{5.0, 5.0};  // dominated by (1,1) and (2,2)

  QueryStats stats;
  EXPECT_TRUE(index.ReverseTopK(q, 1, &stats).empty());
  // The first weight's scan discovers a dominator, so exactly one weight
  // was evaluated before the >= k dominators abort.
  EXPECT_EQ(stats.weights_evaluated, 1u);

  // Non-aborted queries still count every weight.
  QueryStats full;
  index.ReverseTopK(q, 4, &full);
  EXPECT_EQ(full.weights_evaluated, weights.size());
}

}  // namespace
}  // namespace gir
