#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>

namespace kelpie {

ThreadPool::ThreadPool(size_t num_threads) {
  const size_t count = std::max<size_t>(1, num_threads);
  workers_.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    queue_.push(std::move(task));
    ++in_flight_;
  }
  work_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(
          lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (shutting_down_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) {
        all_done_.notify_all();
      }
    }
  }
}

namespace {

/// Shared state of one pooled fan-out. Tasks keep the batch alive via
/// shared_ptr: helper strands that the pool only schedules after the batch
/// has drained see a stopped or exhausted claim word and return without
/// touching the closures. Claims and the stop latch share one atomic word
/// so they serialize: once the stop bit is set, no CAS claim can succeed,
/// which makes the claim count at latch time the final, stable drain
/// target. Claims are handed out in index order, so the set of indices
/// that ever run is always the contiguous prefix [0, target).
struct Batch {
  static constexpr uint64_t kStopBit = uint64_t{1} << 63;

  Batch(size_t n, std::function<void(size_t)> f,
        std::function<Status()> check)
      : count(n), fn(std::move(f)), interrupt(std::move(check)) {
    target.store(count);
  }

  const uint64_t count;
  const std::function<void(size_t)> fn;
  const std::function<Status()> interrupt;
  /// Low 63 bits: number of claimed indices. Bit 63: stop latch.
  std::atomic<uint64_t> state{0};
  std::atomic<uint64_t> done{0};
  /// Number of indices that must finish before the batch is drained.
  /// `count` until a latch lowers it to the claim count at latch time.
  std::atomic<uint64_t> target{0};
  std::mutex mu;
  std::condition_variable cv;
  Status status;             // first interrupt status; guarded by mu
  std::exception_ptr error;  // first exception; guarded by mu

  /// Sets the stop bit (idempotent) and records the first cause. The
  /// latcher always holds an unfinished claim of its own, so its Finish()
  /// — sequenced after the target store — performs the final notify if this
  /// one races with concurrent finishers.
  void LatchStop(Status interrupt_status, std::exception_ptr exception) {
    const uint64_t prior = state.fetch_or(kStopBit);
    std::lock_guard<std::mutex> lock(mu);
    if ((prior & kStopBit) == 0) {
      target.store(std::min(count, prior & ~kStopBit));
    }
    if (exception != nullptr) {
      if (!error) error = exception;
    } else if (status.ok() && !interrupt_status.ok()) {
      status = std::move(interrupt_status);
    }
    cv.notify_all();
  }

  void Finish() {
    if (done.fetch_add(1) + 1 == target.load()) {
      // Completion may race with the caller's predicate check; notify
      // under the mutex so the wakeup cannot be lost.
      std::lock_guard<std::mutex> lock(mu);
      cv.notify_all();
    }
  }

  /// Claims and runs indices until the batch is exhausted or stopped.
  void Run() {
    while (true) {
      uint64_t s = state.load();
      uint64_t index;
      while (true) {
        // Strands scheduled after the batch drained bail out here, before
        // touching the caller-owned closures.
        if ((s & kStopBit) != 0 || (s & ~kStopBit) >= count) return;
        if (state.compare_exchange_weak(s, s + 1)) {
          index = s;
          break;
        }
      }
      // The claim is committed: this index runs and counts toward the
      // drain target no matter what, so the caller cannot unblock (and the
      // closures cannot die) until Finish() below.
      if (interrupt) {
        Status interrupt_status = interrupt();
        if (!interrupt_status.ok()) {
          LatchStop(std::move(interrupt_status), nullptr);
        }
      }
      try {
        fn(static_cast<size_t>(index));
      } catch (...) {
        LatchStop(Status::Ok(), std::current_exception());
      }
      Finish();
    }
  }
};

}  // namespace

void ParallelFor(ThreadPool* pool, size_t count,
                 const std::function<void(size_t)>& fn) {
  CancellableParallelFor(pool, count, fn, nullptr);
}

ParallelOutcome CancellableParallelFor(
    ThreadPool* pool, size_t count, const std::function<void(size_t)>& fn,
    const std::function<Status()>& interrupt) {
  if (pool == nullptr || count <= 1) {
    for (size_t i = 0; i < count; ++i) {
      if (interrupt) {
        Status status = interrupt();
        if (!status.ok()) return ParallelOutcome{std::move(status), i};
      }
      fn(i);
    }
    return ParallelOutcome{Status::Ok(), count};
  }
  // Check once up front on the calling thread so an already-expired control
  // starts zero chunks instead of one per strand.
  if (interrupt) {
    Status entry = interrupt();
    if (!entry.ok()) return ParallelOutcome{std::move(entry), 0};
  }
  auto batch = std::make_shared<Batch>(count, fn, interrupt);
  // The caller claims indices too, so only count - 1 helpers can ever be
  // useful. Caller participation is what makes nesting safe: a batch
  // started from inside a pool task completes even if no worker is free.
  const size_t helpers = std::min(pool->num_threads(), count - 1);
  for (size_t s = 0; s < helpers; ++s) {
    pool->Submit([batch] { batch->Run(); });
  }
  batch->Run();
  std::unique_lock<std::mutex> lock(batch->mu);
  batch->cv.wait(lock,
                 [&] { return batch->done.load() == batch->target.load(); });
  if (batch->error) std::rethrow_exception(batch->error);
  return ParallelOutcome{batch->status,
                         static_cast<size_t>(batch->done.load())};
}

}  // namespace kelpie
