// Seed sweep of the merge oracle: hundreds of short seeded op streams
// through ShardedGirIndex at 1, 2 and 3 shards, under the blocked and τ
// engines, with background compaction on for every other seed. Each
// stream is checked op for op against one DynamicGirIndex by the shared
// OracleChecker (bench_util/op_stream.h). Slow-labelled: the sanitizer
// lanes run it after the fast suites.
//
// A failing seed prints a one-line repro, a CheckSeed(...) call: paste it
// into a TEST in this file and run that test alone to replay the stream.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "bench_util/op_stream.h"
#include "grid/sharded_index.h"

namespace gir {
namespace {

constexpr uint64_t kSeedsPerCase = 100;
constexpr size_t kOpsPerSeed = 150;

/// One seed of the merge oracle (bench_util/op_stream.h's
/// CheckShardedMerge): OK or the checker's first divergence.
Status CheckSeed(size_t shards, ScanMode mode, bool background_compact,
                 uint64_t seed, uint64_t* bg_compactions = nullptr) {
  ShardedIndexOptions options;
  options.shards = shards;
  options.background_compact = background_compact;
  options.dynamic.gir.scan_mode = mode;
  options.dynamic.gir.tau.threads = 1;
  return CheckShardedMerge(options, kOpsPerSeed, seed, nullptr,
                           bg_compactions);
}

struct SweepCase {
  size_t shards;
  ScanMode mode;
};

class OracleSweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(OracleSweepTest, EverySeedMatchesTheSingleIndex) {
  const SweepCase c = GetParam();
  const char* mode = c.mode == ScanMode::kTauIndex ? "ScanMode::kTauIndex"
                                                   : "ScanMode::kBlocked";
  uint64_t bg_compactions = 0;
  for (uint64_t seed = 1; seed <= kSeedsPerCase; ++seed) {
    const bool background = seed % 2 == 0;
    const Status s =
        CheckSeed(c.shards, c.mode, background, seed, &bg_compactions);
    EXPECT_TRUE(s.ok()) << "repro: CheckSeed(" << c.shards << ", " << mode
                        << ", " << (background ? "true" : "false") << ", "
                        << seed << ") -> " << s.ToString();
  }
  // The background half of the sweep must have exercised the off-lane
  // rebuild and install path.
  EXPECT_GT(bg_compactions, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ShardsAndEngines, OracleSweepTest,
    ::testing::Values(SweepCase{1, ScanMode::kBlocked},
                      SweepCase{2, ScanMode::kBlocked},
                      SweepCase{3, ScanMode::kBlocked},
                      SweepCase{1, ScanMode::kTauIndex},
                      SweepCase{2, ScanMode::kTauIndex},
                      SweepCase{3, ScanMode::kTauIndex}),
    [](const auto& info) {
      return std::to_string(info.param.shards) + "Shards" +
             (info.param.mode == ScanMode::kTauIndex ? "Tau" : "Blocked");
    });

}  // namespace
}  // namespace gir
