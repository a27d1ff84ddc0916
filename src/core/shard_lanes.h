#ifndef GIR_CORE_SHARD_LANES_H_
#define GIR_CORE_SHARD_LANES_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace gir {

/// ShardLanes — one FIFO thread per shard, the executor both shard
/// routers (ShardedGirIndex in-process, DistRouter over the wire) run
/// their per-shard work on. A lane runs its tasks one at a time, in the
/// order they were posted; a router posts under its admission lock, so
/// every lane applies the one global admission order. Lanes are not
/// pinned to CPUs: the scheduler places them.
///
/// Each lane keeps a posted/completed clock: a quiesce snapshots
/// Posted() and waits with WaitCompleted(), and queue_depth() is the
/// difference.
class ShardLanes {
 public:
  explicit ShardLanes(size_t lanes);
  /// Runs every task already posted, then joins the lane threads.
  ~ShardLanes();

  ShardLanes(const ShardLanes&) = delete;
  ShardLanes& operator=(const ShardLanes&) = delete;

  /// Appends `task` to lane `lane`. Tasks may post to lanes themselves.
  void Post(size_t lane, std::function<void()> task);

  /// One fan-out: posts task(s) to each lane in `targets`, releases
  /// `admission` (the caller's admission lock, held so that posting order
  /// is admission order) and blocks until every posted task has run.
  void FanOut(const std::vector<uint32_t>& targets,
              const std::function<void(size_t)>& task,
              std::unique_lock<std::mutex>& admission);

  /// Tasks posted so far, per lane.
  std::vector<uint64_t> Posted() const;
  /// Blocks until lane s has completed at least `targets[s]` tasks.
  void WaitCompleted(const std::vector<uint64_t>& targets) const;
  /// Tasks posted to `lane` and not yet completed.
  uint64_t queue_depth(size_t lane) const;

 private:
  struct Lane {
    mutable std::mutex mu;
    std::condition_variable work_cv;          ///< the lane thread waits
    mutable std::condition_variable done_cv;  ///< WaitCompleted waits
    std::deque<std::function<void()>> queue;
    uint64_t posted = 0;
    uint64_t completed = 0;
    bool stop = false;
    std::thread thread;
  };

  static void Run(Lane& lane);

  std::vector<std::unique_ptr<Lane>> lanes_;
};

}  // namespace gir

#endif  // GIR_CORE_SHARD_LANES_H_
