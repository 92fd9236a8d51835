#ifndef KELPIE_COMMON_THREAD_POOL_H_
#define KELPIE_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "common/status.h"

namespace kelpie {

/// A fixed-size worker pool for embarrassingly parallel read-only work:
/// evaluation ranks every test fact independently against an immutable
/// model, and the Relevance Engine / Explanation Builder evaluate candidate
/// explanations whose post-trainings are seeded independently of schedule.
/// Training stays single-threaded by design — its update order is part of
/// the deterministic contract.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);

  /// Joins all workers; pending tasks are completed first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Enqueues one task.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void Wait();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  size_t in_flight_ = 0;
  bool shutting_down_ = false;
};

/// Runs fn(i) for every i in [0, count) and waits for completion. This
/// fan-out and the three below are the only place that chooses between
/// running on the caller and running on a pool.
///
/// Inline: a null `pool` or a `count` <= 1 runs the plain loop
/// `for (i = 0; i < count; ++i) fn(i)` on the calling thread. An interrupt
/// is checked before each index, and no index starts after a non-OK check.
/// An exception from fn propagates at once, so no later index runs. No
/// batch is allocated and no lock is taken.
///
/// Pooled: otherwise the indices are claimed in index order by the calling
/// thread and up to count - 1 pool strands. The caller participates, so the
/// call is re-entrant: a fan-out issued from inside a pool task makes
/// progress even when every worker is busy (nested batches drain through
/// their callers). The first exception from fn stops new indices from
/// starting; indices already started finish, and that exception is
/// rethrown on the calling thread after the drain. fn and interrupt are
/// never invoked after the call returns.
///
/// Either way fn must be safe to call concurrently for distinct indices.
void ParallelFor(ThreadPool* pool, size_t count,
                 const std::function<void(size_t)>& fn);

/// ParallelFor collecting per-index results: returns a vector v of size
/// `count` with v[i] = fn(i), always in index order regardless of the
/// execution schedule. The result type must be default-constructible.
template <typename Fn>
auto ParallelMap(ThreadPool* pool, size_t count, Fn&& fn)
    -> std::vector<decltype(fn(size_t{0}))> {
  std::vector<decltype(fn(size_t{0}))> out(count);
  ParallelFor(pool, count, [&](size_t i) { out[i] = fn(i); });
  return out;
}

/// Result of a cancellable batch. `completed` is a *contiguous prefix*:
/// indices [0, completed) each ran exactly once and indices >= completed
/// never started. `status` is Ok when the batch ran to its natural end
/// (completed == count), otherwise the first interrupt status observed.
struct ParallelOutcome {
  Status status;
  size_t completed = 0;
};

/// ParallelFor with cooperative interruption; a null `interrupt` never
/// interrupts. Inline, `interrupt` is checked before each index. Pooled, it
/// is checked once on the caller before any index starts and then once per
/// claimed index, never concurrently with itself from a drained batch; the
/// first non-OK status stops new indices from starting, while indices
/// already claimed (at most one per strand) still run.
ParallelOutcome CancellableParallelFor(
    ThreadPool* pool, size_t count, const std::function<void(size_t)>& fn,
    const std::function<Status()>& interrupt);

/// CancellableParallelFor collecting per-index results. Returns only the
/// completed prefix: the vector has size outcome->completed, with v[i] =
/// fn(i) in index order.
template <typename Fn>
auto CancellableParallelMap(ThreadPool* pool, size_t count, Fn&& fn,
                            const std::function<Status()>& interrupt,
                            ParallelOutcome* outcome)
    -> std::vector<decltype(fn(size_t{0}))> {
  std::vector<decltype(fn(size_t{0}))> out(count);
  *outcome = CancellableParallelFor(
      pool, count, [&](size_t i) { out[i] = fn(i); }, interrupt);
  out.resize(outcome->completed);
  return out;
}

}  // namespace kelpie

#endif  // KELPIE_COMMON_THREAD_POOL_H_
