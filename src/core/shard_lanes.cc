#include "core/shard_lanes.h"

#include <utility>

namespace gir {

namespace {

/// Completion latch of one fan-out. It lives on the waiter's stack, and
/// the waiter returns, destroying it, the moment it observes zero.
class Latch {
 public:
  explicit Latch(size_t count) : remaining_(count) {}

  /// Notifies while still holding the mutex: a notify after the unlock
  /// would race the waiter's return and touch a dead condition variable.
  void CountDown() {
    std::lock_guard<std::mutex> lk(mu_);
    if (--remaining_ == 0) cv_.notify_all();
  }

  void Wait() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [this] { return remaining_ == 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t remaining_;
};

}  // namespace

ShardLanes::ShardLanes(size_t lanes) {
  lanes_.reserve(lanes);
  for (size_t s = 0; s < lanes; ++s) {
    lanes_.push_back(std::make_unique<Lane>());
  }
  for (auto& lane : lanes_) {
    Lane* l = lane.get();
    l->thread = std::thread([l] { Run(*l); });
  }
}

ShardLanes::~ShardLanes() {
  for (auto& lane : lanes_) {
    {
      std::lock_guard<std::mutex> lk(lane->mu);
      lane->stop = true;
    }
    lane->work_cv.notify_one();
  }
  for (auto& lane : lanes_) lane->thread.join();
}

void ShardLanes::Run(Lane& lane) {
  std::unique_lock<std::mutex> lk(lane.mu);
  for (;;) {
    lane.work_cv.wait(lk, [&] { return lane.stop || !lane.queue.empty(); });
    if (lane.queue.empty()) return;  // stopping and drained
    std::function<void()> task = std::move(lane.queue.front());
    lane.queue.pop_front();
    lk.unlock();
    task();
    task = nullptr;  // release the task's captures outside the lock
    lk.lock();
    ++lane.completed;
    lane.done_cv.notify_all();
  }
}

void ShardLanes::Post(size_t lane, std::function<void()> task) {
  Lane& l = *lanes_[lane];
  {
    std::lock_guard<std::mutex> lk(l.mu);
    l.queue.push_back(std::move(task));
    ++l.posted;
  }
  l.work_cv.notify_one();
}

void ShardLanes::FanOut(const std::vector<uint32_t>& targets,
                        const std::function<void(size_t)>& task,
                        std::unique_lock<std::mutex>& admission) {
  Latch latch(targets.size());
  for (uint32_t s : targets) {
    Post(s, [&task, &latch, s] {
      task(s);
      latch.CountDown();
    });
  }
  admission.unlock();
  latch.Wait();
}

std::vector<uint64_t> ShardLanes::Posted() const {
  std::vector<uint64_t> out(lanes_.size());
  for (size_t s = 0; s < lanes_.size(); ++s) {
    std::lock_guard<std::mutex> lk(lanes_[s]->mu);
    out[s] = lanes_[s]->posted;
  }
  return out;
}

void ShardLanes::WaitCompleted(const std::vector<uint64_t>& targets) const {
  for (size_t s = 0; s < lanes_.size(); ++s) {
    Lane& l = *lanes_[s];
    std::unique_lock<std::mutex> lk(l.mu);
    l.done_cv.wait(lk, [&] { return l.completed >= targets[s]; });
  }
}

uint64_t ShardLanes::queue_depth(size_t lane) const {
  const Lane& l = *lanes_[lane];
  std::lock_guard<std::mutex> lk(l.mu);
  return l.posted - l.completed;
}

}  // namespace gir
