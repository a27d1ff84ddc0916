#include "grid/score_runs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "data/rng.h"

namespace gir {
namespace {

constexpr size_t kMaxHandles = 24;

/// Scores drawn from a small lattice, so equal scores are common, with
/// -0.0 and +0.0 mixed in: the store must count them exactly as `<` on a
/// sorted vector does.
std::vector<double> DrawScores(Rng& rng) {
  std::vector<double> scores(kMaxHandles);
  for (double& s : scores) {
    const size_t roll = rng.NextIndex(20);
    if (roll == 0) {
      s = -0.0;
    } else if (roll == 1) {
      s = 0.0;
    } else {
      s = static_cast<double>(rng.NextIndex(40)) / 8.0;
    }
  }
  return scores;
}

/// What became of each appended point: still held and live, removed
/// from the buffer (gone from the store), or removed after a merge (still
/// held, and recorded in the erased store).
enum class Fate { kLive, kGone, kErased };

std::vector<double> Probes() {
  std::vector<double> probes = {-std::numeric_limits<double>::infinity(),
                                -1.0, -0.0, 0.0,
                                std::numeric_limits<double>::infinity()};
  for (size_t i = 0; i <= 40; ++i) {
    probes.push_back(static_cast<double>(i) / 8.0);
    probes.push_back((static_cast<double>(i) + 0.5) / 8.0);
  }
  return probes;
}

int64_t SortedCountBelow(const std::vector<double>& sorted, double s) {
  return std::lower_bound(sorted.begin(), sorted.end(), s) - sorted.begin();
}

/// Handles 0 .. n − 1, for the store's batched count.
std::vector<uint32_t> AllHandles(size_t n) {
  std::vector<uint32_t> handles(n);
  for (size_t h = 0; h < n; ++h) handles[h] = static_cast<uint32_t>(h);
  return handles;
}

/// sign · count below s of every handle in `handles`, through the
/// store's batched call (indexed by handle).
std::vector<int64_t> CountsBelow(const ScoreRuns& runs,
                                 std::span<const uint32_t> handles, double s,
                                 int64_t sign = 1) {
  const std::vector<double> keys(runs.num_handles(), s);
  std::vector<int64_t> counts(runs.num_handles(), 0);
  runs.AccumulateCountsBelow(handles, keys.data(), sign, counts.data());
  return counts;
}

/// Every count of `held`, of `erased` and of their difference, for every
/// handle and probe, against sorted-vector references built from the
/// point fates; and each handle's sorted row against the held reference.
/// Counts run once over all handles at a time (more than one lockstep
/// group) and once per single handle.
void ExpectMatches(const ScoreRuns& held, const ScoreRuns& erased,
                   const std::vector<std::vector<double>>& point_scores,
                   const std::vector<Fate>& fates, size_t handles,
                   const std::string& context) {
  ASSERT_EQ(held.num_handles(), handles) << context;
  ASSERT_EQ(erased.num_handles(), handles) << context;
  std::vector<std::vector<double>> want_held(handles);
  std::vector<std::vector<double>> want_erased(handles);
  std::vector<std::vector<double>> want_live(handles);
  for (size_t h = 0; h < handles; ++h) {
    for (size_t p = 0; p < point_scores.size(); ++p) {
      const double s = point_scores[p][h];
      if (fates[p] != Fate::kGone) want_held[h].push_back(s);
      if (fates[p] == Fate::kErased) want_erased[h].push_back(s);
      if (fates[p] == Fate::kLive) want_live[h].push_back(s);
    }
    std::sort(want_held[h].begin(), want_held[h].end());
    std::sort(want_erased[h].begin(), want_erased[h].end());
    std::sort(want_live[h].begin(), want_live[h].end());
    ASSERT_EQ(held.size(), want_held[h].size()) << context;
    ASSERT_EQ(erased.size(), want_erased[h].size()) << context;
  }
  const std::vector<uint32_t> all = AllHandles(handles);
  for (double s : Probes()) {
    const std::vector<int64_t> in_held = CountsBelow(held, all, s);
    const std::vector<int64_t> in_erased = CountsBelow(erased, all, s);
    // The index's own combination: erased counts subtract in place.
    std::vector<int64_t> live = in_held;
    std::vector<double> keys(handles, s);
    erased.AccumulateCountsBelow(all, keys.data(), -1, live.data());
    for (size_t h = 0; h < handles; ++h) {
      ASSERT_EQ(in_held[h], SortedCountBelow(want_held[h], s))
          << context << " held h=" << h << " s=" << s;
      ASSERT_EQ(in_erased[h], SortedCountBelow(want_erased[h], s))
          << context << " erased h=" << h << " s=" << s;
      ASSERT_EQ(live[h], SortedCountBelow(want_live[h], s))
          << context << " live h=" << h << " s=" << s;
      const std::span<const uint32_t> one(&all[h], 1);
      ASSERT_EQ(CountsBelow(held, one, s)[h], in_held[h])
          << context << " single held h=" << h << " s=" << s;
    }
  }
  for (size_t h = 0; h < handles; ++h) {
    std::vector<double> row;
    held.SortedRow(h, &row);
    ASSERT_EQ(row, want_held[h]) << context << " sorted row h=" << h;
  }
}

TEST(ScoreRunsTest, CountsMatchSortedVectorsAcrossSixCarryLevels) {
  Rng rng(2601);
  std::vector<std::vector<double>> point_scores;  // by point handle
  std::vector<Fate> fates;
  std::vector<uint32_t> live_points;
  ScoreRuns held;    // every appended point, minus in-buffer removals
  ScoreRuns erased;  // removed points that had already been merged
  size_t handles = 5;
  held.Reset(handles);
  erased.Reset(handles);

  size_t buffered_removals = 0;
  size_t merged_removals = 0;
  size_t checked_at = 0;
  size_t next_check = 1;
  // 16 · (2^7 − 1) appends: every level up to 6 fills at least once.
  const size_t kAppends = 16 * 127 + 5;
  while (point_scores.size() < kAppends) {
    const size_t roll = rng.NextIndex(100);
    if (roll < 70 || live_points.empty()) {
      const uint32_t p = static_cast<uint32_t>(point_scores.size());
      point_scores.push_back(DrawScores(rng));
      fates.push_back(Fate::kLive);
      held.Append(p, point_scores[p].data());
      live_points.push_back(p);
    } else if (roll < 97) {
      // Remove either the newest point (usually still buffered) or a
      // random one (usually merged into a level).
      const size_t at = roll < 85 ? live_points.size() - 1
                                  : rng.NextIndex(live_points.size());
      const uint32_t p = live_points[at];
      live_points.erase(live_points.begin() + static_cast<long>(at));
      const std::vector<double>& s = point_scores[p];
      ASSERT_TRUE(held.Holds(p, s.data()));
      std::vector<double> wrong = s;
      wrong[handles - 1] += 1.0 / 16.0;  // one handle's score differs
      ASSERT_FALSE(held.Holds(p, wrong.data()));
      std::vector<double> flipped = s;  // ±0.0 compare equal: still held
      for (double& x : flipped) x = x == 0.0 ? -x : x;
      ASSERT_TRUE(held.Holds(p, flipped.data()));
      if (held.EraseBuffered(p)) {
        fates[p] = Fate::kGone;
        ++buffered_removals;
        ASSERT_FALSE(held.Holds(p, s.data()));
      } else {
        erased.Append(p, s.data());
        fates[p] = Fate::kErased;
        ++merged_removals;
      }
      ASSERT_FALSE(held.EraseBuffered(p));
    } else if (handles < kMaxHandles) {
      // A handle appended mid-stream scores its own row for every point
      // each store holds.
      const size_t h = handles++;
      const auto score_of = [&](uint32_t p) { return point_scores[p][h]; };
      held.AddHandle(score_of);
      erased.AddHandle(score_of);
    }
    const size_t appends = point_scores.size();
    if (appends != checked_at && (appends == next_check || appends % 97 == 0)) {
      ExpectMatches(held, erased, point_scores, fates, handles,
                    "appends=" + std::to_string(appends));
      checked_at = appends;
      if (appends == next_check) next_check *= 2;
    }
  }
  ExpectMatches(held, erased, point_scores, fates, handles, "final");
  EXPECT_EQ(handles, kMaxHandles);
  EXPECT_GT(buffered_removals, 0u);
  EXPECT_GT(merged_removals, 0u);
  // More than 16 · (2^6 − 1) points held: a seventh level was formed.
  EXPECT_GT(held.size(), ScoreRuns::kBuffer * 63);
}

TEST(ScoreRunsTest, FillMatchesAppendsAndResetReleasesMemory) {
  Rng rng(2602);
  const size_t handles = 7;
  std::vector<std::vector<double>> point_scores;
  std::vector<uint32_t> points;
  ScoreRuns appended;
  appended.Reset(handles);
  for (uint32_t p = 0; p < 16 * 45 + 11; ++p) {
    point_scores.push_back(DrawScores(rng));
    points.push_back(p);
    appended.Append(p, point_scores[p].data());
  }
  ScoreRuns filled;
  filled.Fill(handles, points, [&](uint32_t p, double* out) {
    std::copy(point_scores[p].begin(), point_scores[p].begin() + handles,
              out);
  });
  ASSERT_EQ(filled.size(), appended.size());
  const std::vector<uint32_t> all = AllHandles(handles);
  for (double s : Probes()) {
    ASSERT_EQ(CountsBelow(filled, all, s), CountsBelow(appended, all, s))
        << "s=" << s;
  }
  // The filled layout is a live one: the newest points are buffered and
  // the oldest sit in levels, exactly as after the appends.
  const uint32_t newest = points.back();
  EXPECT_TRUE(filled.Holds(newest, point_scores[newest].data()));
  EXPECT_TRUE(filled.EraseBuffered(newest));
  EXPECT_TRUE(filled.Holds(0, point_scores[0].data()));
  EXPECT_FALSE(filled.EraseBuffered(0));
  EXPECT_EQ(filled.size(), appended.size() - 1);

  EXPECT_GT(appended.MemoryBytes(), handles * appended.size() *
                                        sizeof(double));
  appended.Reset(handles);
  EXPECT_EQ(appended.MemoryBytes(), 0u);
  EXPECT_EQ(CountsBelow(appended, all, 1e9), std::vector<int64_t>(handles, 0));
}

}  // namespace
}  // namespace gir
