#ifndef GIR_CORE_THREAD_POOL_H_
#define GIR_CORE_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace gir {

/// Minimal fixed-size worker pool for data-parallel scans. Reverse rank
/// queries are embarrassingly parallel over W (each weight's rank
/// computation is independent), so ParallelFor over weight stripes is all
/// the machinery the library needs.
class ThreadPool {
 public:
  /// `threads` == 0 uses std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(size_t threads = 0);

  /// Drains outstanding work and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t thread_count() const { return workers_.size(); }

  /// Runs fn(chunk_begin, chunk_end) over a partition of [begin, end) into
  /// chunks of at most `grain` items, on the pool's workers (the calling
  /// thread also participates). Blocks until every chunk completes. fn must
  /// be safe to invoke concurrently on disjoint ranges.
  /// Not reentrant: issue one ParallelFor at a time per pool.
  void ParallelFor(size_t begin, size_t end, size_t grain,
                   const std::function<void(size_t, size_t)>& fn);

 private:
  void WorkerLoop();

  /// Pops and runs one task; returns false if the queue was empty.
  bool RunOneTask();

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable batch_done_;
  std::queue<std::function<void()>> tasks_;
  size_t in_flight_ = 0;
  bool shutting_down_ = false;
};

/// The library's one stripe-and-merge driver. Runs fn(begin, end, state)
/// over [begin, end). Without a pool (or with a one-worker pool, or a
/// range of one stripe) that is a single call on the caller's thread
/// directly on `into`: no stripe state and no merge. Otherwise the range
/// is cut into stripes of `grain` items run on the pool, each stripe into
/// its own state from make_stripe(), and merge(into, stripe_state) then
/// folds the stripes into `into` in stripe order on the calling thread —
/// so a merge that appends keeps ascending-id outputs sorted without a
/// sort.
template <typename State, typename MakeStripe, typename Fn, typename Merge>
void StripedFor(ThreadPool* pool, size_t begin, size_t end, size_t grain,
                State& into, MakeStripe&& make_stripe, Fn&& fn,
                Merge&& merge) {
  if (begin >= end) return;
  grain = grain == 0 ? 1 : grain;
  if (pool == nullptr || pool->thread_count() <= 1 || end - begin <= grain) {
    fn(begin, end, into);
    return;
  }
  std::vector<State> stripes;
  stripes.reserve((end - begin + grain - 1) / grain);
  for (size_t b = begin; b < end; b += grain) stripes.push_back(make_stripe());
  pool->ParallelFor(begin, end, grain, [&](size_t b, size_t e) {
    fn(b, e, stripes[(b - begin) / grain]);
  });
  for (State& stripe : stripes) merge(into, stripe);
}

/// StripedFor for passes whose stripes write disjoint outputs and need
/// no merge: fn(begin, end) once on the caller's thread without a pool,
/// ParallelFor over stripes of `grain` items with one.
template <typename Fn>
void StripedFor(ThreadPool* pool, size_t begin, size_t end, size_t grain,
                Fn&& fn) {
  if (begin >= end) return;
  if (pool == nullptr || pool->thread_count() <= 1) {
    fn(begin, end);
    return;
  }
  pool->ParallelFor(begin, end, grain, fn);
}

}  // namespace gir

#endif  // GIR_CORE_THREAD_POOL_H_
