// The shard fan-out core both routers share: the lane executor and its
// fan-out (core/shard_lanes.h), the weight-id map and merges
// (grid/shard_map.h), and the STATS histogram (core/histogram.h).
//
// Fast-labelled on purpose, and it starts no threads besides the lanes:
// the ASan and TSan CI lanes must run the latch stress test.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include <gtest/gtest.h>

#include "core/histogram.h"
#include "core/shard_lanes.h"
#include "grid/shard_map.h"

namespace gir {
namespace {

// Every fan-out's completion latch lives on the waiter's stack and dies
// the moment FanOut returns. A lane that touched the latch after counting
// down (for example by notifying after the unlock) would race that
// return, which the thread sanitizer reports and an unsanitized build may
// crash on.
TEST(ShardLanesTest, FanOutLatchSurvivesImmediateReturnOverManyFanOuts) {
  ShardLanes lanes(2);
  std::mutex admission;
  const std::vector<uint32_t> one = {0};
  const std::vector<uint32_t> two = {0, 1};
  uint64_t sum = 0;
  uint64_t expected = 0;
  for (uint64_t i = 0; i < 5000; ++i) {
    const std::vector<uint32_t>& targets = i % 2 == 0 ? one : two;
    uint64_t slots[2] = {0, 0};
    std::unique_lock<std::mutex> lk(admission);
    lanes.FanOut(targets, [&slots, i](size_t s) { slots[s] = i + s; }, lk);
    for (uint32_t s : targets) expected += i + s;
    sum += slots[0] + slots[1];
  }
  EXPECT_EQ(sum, expected);
}

TEST(ShardLanesTest, EachLaneRunsItsTasksInPostOrder) {
  ShardLanes lanes(3);
  std::vector<std::vector<int>> seen(3);
  for (int i = 0; i < 300; ++i) {
    lanes.Post(i % 3, [&seen, i] { seen[i % 3].push_back(i); });
  }
  lanes.WaitCompleted(lanes.Posted());
  for (size_t s = 0; s < 3; ++s) {
    ASSERT_EQ(seen[s].size(), 100u);
    for (size_t j = 0; j < seen[s].size(); ++j) {
      EXPECT_EQ(seen[s][j], static_cast<int>(3 * j + s));
    }
    EXPECT_EQ(lanes.queue_depth(s), 0u);
  }
  EXPECT_EQ(lanes.Posted(), (std::vector<uint64_t>{100, 100, 100}));
}

// Shutdown drains: every task posted before destruction runs, including
// ones a task posts onto its own lane, and the destructor returns.
TEST(ShardLanesTest, DestructionRunsEveryPostedTaskAndJoins) {
  std::atomic<int> ran{0};
  {
    ShardLanes lanes(2);
    for (int i = 0; i < 200; ++i) {
      lanes.Post(i % 2, [&lanes, &ran, i] {
        ran.fetch_add(1);
        if (i < 2) lanes.Post(i, [&ran] { ran.fetch_add(1); });
      });
    }
  }
  EXPECT_EQ(ran.load(), 202);
}

// Weights 0..4 round-robin over two shards: owners 0 1 0 1 0.
TEST(ShardMapTest, DeleteRenumbersLaterIdsOnEveryShard) {
  ShardMap map(2, ShardMap::RoundRobin(2, 5), /*insert_counter=*/5);
  EXPECT_EQ(map.owners(), (std::vector<uint32_t>{0, 1, 0, 1, 0}));
  EXPECT_EQ(map.LocalId(4), 2u);
  EXPECT_EQ(map.LocalId(3), 1u);

  const std::vector<ShardMap::IdMap> pinned = map.Pin();
  map.RemoveWeight(1);
  EXPECT_EQ(map.owners(), (std::vector<uint32_t>{0, 0, 1, 0}));
  std::vector<ShardMap::IdMap> now = map.Pin();
  EXPECT_EQ(*now[0], (std::vector<VectorId>{0, 1, 3}));
  EXPECT_EQ(*now[1], (std::vector<VectorId>{2}));
  // A query admitted before the delete keeps its cut.
  EXPECT_EQ(*pinned[1], (std::vector<VectorId>{1, 3}));

  // The cursor counts every insert ever: insert 5 goes to shard 1.
  EXPECT_EQ(map.AddWeight(), 1u);
  map.SkipWeight();  // insert 6 (shard 0) could not be placed
  EXPECT_EQ(map.next_owner(), 1u);
  now = map.Pin();
  EXPECT_EQ(*now[1], (std::vector<VectorId>{2, 4}));
  EXPECT_EQ(map.live_weights(), 5u);
  EXPECT_EQ(map.insert_counter(), 7u);
}

TEST(ShardMapTest, MergeShardsMapsAndMergesOnlyListedShards) {
  ShardMap map(2, ShardMap::RoundRobin(2, 6), 6);  // 0:{0,2,4} 1:{1,3,5}
  const std::vector<ShardMap::IdMap> maps = map.Pin();

  std::vector<ReverseTopKResult> rtk = {{0, 2}, {1}};
  EXPECT_EQ(MergeShards(rtk, maps, {0, 1}, 10),
            (ReverseTopKResult{0, 3, 4}));

  // Ties on rank break by global id; the merge truncates to k.
  std::vector<ReverseKRanksResult> rkr = {{{0, 1}, {2, 3}}, {{0, 1}, {2, 2}}};
  EXPECT_EQ(MergeShards(rkr, maps, {0, 1}, 3),
            (ReverseKRanksResult{{0, 1}, {1, 1}, {5, 2}}));

  // An uncovered shard's answer is ignored.
  rkr = {{{0, 1}}, {{0, 0}}};
  EXPECT_EQ(MergeShards(rkr, maps, {0}, 3), (ReverseKRanksResult{{0, 1}}));
}

TEST(Pow2HistogramTest, QuantileIsTheUpperEdgeOfTheHoldingBucket) {
  Pow2Histogram h;
  EXPECT_EQ(h.Quantile(0.5), 0u);
  for (int i = 0; i < 9; ++i) h.Record(3);  // bucket [2,4)
  h.Record(1000);                           // bucket [512,1024)
  EXPECT_EQ(h.Quantile(0.50), 4u);
  EXPECT_EQ(h.Quantile(0.99), 1024u);
  EXPECT_EQ(h.Snapshot()[1], 9u);
  EXPECT_EQ(Pow2Histogram::Bucket(0), 0);
  EXPECT_EQ(Pow2Histogram::Bucket(~uint64_t{0}), Pow2Histogram::kBuckets - 1);
}

}  // namespace
}  // namespace gir
