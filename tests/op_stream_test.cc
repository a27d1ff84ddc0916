// Self-test of the shared operation stream and oracle checker
// (bench_util/op_stream.h) that every churn test and bench relies on: a
// stream is reproducible from its seed and never draws a delete outside
// the live range, and the checker refuses a wrong answer or a diverging
// mutation status, naming the seed, the op index and the op kind.

#include "bench_util/op_stream.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "data/generators.h"
#include "data/weights.h"

namespace gir {
namespace {

constexpr size_t kDim = 3;

OpStreamOptions ChurnOptions() {
  OpStreamOptions options;
  options.dim = kDim;
  options.mix = {.insert_point = 15, .delete_point = 10, .insert_weight = 20,
                 .delete_weight = 15, .compact = 5, .rtk = 20, .rkr = 15};
  options.live_points = 60;
  options.live_weights = 40;
  options.min_live_points = 30;
  options.min_live_weights = 20;
  options.max_k = 6;
  return options;
}

bool SameOp(const Op& a, const Op& b) {
  return a.kind == b.kind && a.row == b.row && a.id == b.id && a.k == b.k;
}

TEST(OpStreamTest, EqualSeedsDrawIdenticalStreams) {
  OpStream a(7, ChurnOptions());
  OpStream b(7, ChurnOptions());
  OpStream other(8, ChurnOptions());
  size_t differing = 0;
  for (size_t i = 0; i < 2000; ++i) {
    const Op x = a.Next();
    ASSERT_TRUE(SameOp(x, b.Next())) << "op " << i;
    differing += SameOp(x, other.Next()) ? 0 : 1;
  }
  EXPECT_GT(differing, 1000u);
}

TEST(OpStreamTest, DeletesStayInsideTheLiveRangeAndAboveTheFloors) {
  const OpStreamOptions options = ChurnOptions();
  std::array<size_t, kOpKinds> drawn{};
  for (uint64_t seed = 0; seed < 20; ++seed) {
    OpStream stream(seed, options);
    size_t points = options.live_points;
    size_t weights = options.live_weights;
    for (size_t i = 0; i < 2000; ++i) {
      const Op op = stream.Next();
      ++drawn[static_cast<size_t>(op.kind)];
      if (op.kind == OpKind::kDeletePoint) {
        ASSERT_GT(points, options.min_live_points) << seed << " op " << i;
        ASSERT_LT(op.id, points--) << seed << " op " << i;
      } else if (op.kind == OpKind::kDeleteWeight) {
        ASSERT_GT(weights, options.min_live_weights) << seed << " op " << i;
        ASSERT_LT(op.id, weights--) << seed << " op " << i;
      }
      points += op.kind == OpKind::kInsertPoint ? 1 : 0;
      weights += op.kind == OpKind::kInsertWeight ? 1 : 0;
      ASSERT_EQ(stream.live_points(), points);
      ASSERT_EQ(stream.live_weights(), weights);
      ASSERT_TRUE(!IsQuery(op.kind) || (op.k >= 1 && op.k <= options.max_k));
    }
  }
  for (size_t count : drawn) EXPECT_GT(count, 0u);
}

TEST(OpStreamTest, FloorBlockedDeletesFallThroughToTheNextKind) {
  OpStream stream(3, {.dim = kDim,
                      .mix = {.delete_point = 50, .insert_weight = 50},
                      .live_points = 5,
                      .min_live_points = 5});
  for (size_t i = 0; i < 200; ++i) {
    ASSERT_EQ(stream.Next().kind, OpKind::kInsertWeight) << "op " << i;
  }
}

// ---- OracleChecker refusals ------------------------------------------------

enum class Fault { kDropRtkWeight, kRkrRankOffByOne, kMutationStatus };

/// A correct target that corrupts the first op it can from op `from` on.
struct FaultyTarget final : OpTarget {
  FaultyTarget(DynamicGirIndex& index, Fault fault, size_t from)
      : inner(index), fault(fault), from(from) {}

  OpResult Apply(const Op& op) override {
    const size_t index = ops++;
    OpResult r = inner.Apply(op);
    if (index < from || fired_at >= 0) return r;
    if (fault == Fault::kMutationStatus && !IsQuery(op.kind)) {
      r.status = Status::InvalidArgument("injected rejection");
    } else if (fault == Fault::kDropRtkWeight && !r.rtk.empty()) {
      r.rtk.erase(r.rtk.begin() + r.rtk.size() / 2);
    } else if (fault == Fault::kRkrRankOffByOne && !r.rkr.empty()) {
      ++r.rkr.back().rank;
    } else {
      return r;
    }
    fired_at = static_cast<int64_t>(index);
    fired_kind = op.kind;
    return r;
  }
  Result<LiveCounts> Live() override { return inner.Live(); }

  IndexTarget<DynamicGirIndex> inner;
  Fault fault;
  size_t from;
  size_t ops = 0;
  int64_t fired_at = -1;
  OpKind fired_kind = OpKind::kCompact;
};

DynamicGirIndex BuildIndex() {
  const Dataset points = GenerateUniform(60, kDim, 11);
  const Dataset weights = GenerateWeightsUniform(40, kDim, 12);
  auto built = DynamicGirIndex::Build(points, weights, DynamicIndexOptions{});
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(built).value();
}

TEST(OracleCheckerTest, HistoryReplayOrdersByVersionAndRefusesTampering) {
  DynamicGirIndex live = BuildIndex();
  OpStream stream(5, ChurnOptions());
  std::vector<RecordedOp> history;
  uint64_t version = 0;
  for (size_t i = 0; i < 300; ++i) {
    RecordedOp r;
    r.op = stream.Next();
    r.result = ApplyOp(live, r.op);
    r.version = IsQuery(r.op.kind) ? version : ++version;
    history.push_back(std::move(r));
  }
  std::reverse(history.begin(), history.end());  // any arrival order
  const auto check = [](std::vector<RecordedOp> h) {
    DynamicGirIndex replay = BuildIndex();
    return CheckHistory(replay, std::move(h), 5);
  };
  EXPECT_TRUE(check(history).ok()) << check(history).ToString();

  std::vector<RecordedOp> wrong = history;
  for (RecordedOp& r : wrong) {
    if (r.result.rkr.empty()) continue;
    ++r.result.rkr.front().rank;
    break;
  }
  EXPECT_EQ(check(wrong).message().rfind("seed 5, op ", 0), 0u);

  std::vector<RecordedOp> gap = history;
  std::erase_if(gap, [](const RecordedOp& r) {
    return !IsQuery(r.op.kind) && r.version == 10;
  });
  EXPECT_EQ(check(gap).message().rfind("seed 5: version ", 0), 0u);
}

class OracleCheckerRefusalTest : public ::testing::TestWithParam<Fault> {};

TEST_P(OracleCheckerRefusalTest, NamesTheSeedOpIndexAndKind) {
  DynamicGirIndex oracle = BuildIndex();
  DynamicGirIndex copy = BuildIndex();
  FaultyTarget target(copy, GetParam(), /*from=*/25);
  OpStream stream(4242, ChurnOptions());
  OracleChecker checker(oracle, target, stream.seed());
  const Status s = checker.Run(stream, 500);
  ASSERT_GE(target.fired_at, 25);
  ASSERT_FALSE(s.ok());
  const std::string where = "seed 4242, op " +
                            std::to_string(target.fired_at) + " (" +
                            OpKindName(target.fired_kind);
  EXPECT_EQ(s.message().rfind(where, 0), 0u) << s.ToString();
  // The checker stops at the first divergence.
  EXPECT_EQ(checker.ops(), static_cast<size_t>(target.fired_at) + 1);
}

constexpr const char* kFaultNames[] = {"DroppedRtkWeight", "RkrRankOffByOne",
                                       "MutationStatus"};
INSTANTIATE_TEST_SUITE_P(
    Faults, OracleCheckerRefusalTest,
    ::testing::Values(Fault::kDropRtkWeight, Fault::kRkrRankOffByOne,
                      Fault::kMutationStatus),
    [](const auto& info) {
      return std::string(kFaultNames[static_cast<int>(info.param)]);
    });

}  // namespace
}  // namespace gir
