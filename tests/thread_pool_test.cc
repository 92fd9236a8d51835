#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/budget.h"
#include "eval/evaluator.h"
#include "tests/test_util.h"

namespace kelpie {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitOnEmptyPoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();  // must not deadlock
  SUCCEED();
}

TEST(ThreadPoolTest, AtLeastOneWorkerEvenForZeroRequest) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, ReusableAcrossWaves) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int wave = 0; wave < 5; ++wave) {
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  ParallelFor(&pool, hits.size(),
              [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, ZeroCountIsNoop) {
  ThreadPool pool(2);
  ParallelFor(&pool, 0, [](size_t) { FAIL() << "must not be called"; });
  SUCCEED();
}

TEST(ParallelForTest, MoreThreadsThanWork) {
  ThreadPool pool(8);
  std::atomic<int> counter{0};
  ParallelFor(&pool, 3, [&](size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 3);
}

TEST(ParallelForTest, ExceptionStopsNewIndicesAndRethrowsFirstAfterDrain) {
  // One worker plus the caller. The worker is held busy until the caller
  // has claimed index 0, so the helper strand claims index 1 and nothing
  // else can claim in between. Index 1 throws; index 0 waits for the
  // helper strand to leave the batch, then throws a second exception.
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> release_worker{false};
  std::atomic<bool> thrown{false};
  pool.Submit([&] {
    while (!release_worker.load()) std::this_thread::yield();
  });
  std::vector<std::atomic<int>> hits(100);
  try {
    ParallelFor(&pool, hits.size(), [&](size_t i) {
      hits[i].fetch_add(1);
      if (i == 1) {
        thrown.store(true);
        throw std::runtime_error("index 1");
      }
      if (i == 0) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        release_worker.store(true);
        while (!thrown.load()) std::this_thread::yield();
        pool.Wait();  // the helper has seen its throw and left the batch
        throw std::runtime_error("index 0");
      }
    });
    ADD_FAILURE() << "ParallelFor did not rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "index 1");
  }
  EXPECT_EQ(hits[0].load(), 1);
  EXPECT_EQ(hits[1].load(), 1);
  for (size_t i = 2; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 0) << "index " << i;
  }
}

TEST(ParallelForTest, InlineExceptionPropagatesAtOnce) {
  std::vector<size_t> ran;
  EXPECT_THROW(ParallelFor(nullptr, 10,
                           [&](size_t i) {
                             ran.push_back(i);
                             if (i == 4) throw std::runtime_error("index 4");
                           }),
               std::runtime_error);
  EXPECT_EQ(ran, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelForTest, NestedCallsDoNotDeadlock) {
  // The caller participates in its own batch, so an inner ParallelFor
  // issued from a pool task drains even when every worker is occupied by
  // outer tasks (the Explanation Builder nests SufficientRelevance's
  // per-entity loop inside its candidate chunks this way).
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  ParallelFor(&pool, 4, [&](size_t) {
    ParallelFor(&pool, 8, [&](size_t) { counter.fetch_add(1); });
  });
  EXPECT_EQ(counter.load(), 32);
}

TEST(ParallelMapTest, ResultsArriveInIndexOrder) {
  ThreadPool pool(4);
  std::vector<size_t> squares =
      ParallelMap(&pool, 100, [](size_t i) { return i * i; });
  ASSERT_EQ(squares.size(), 100u);
  for (size_t i = 0; i < squares.size(); ++i) {
    EXPECT_EQ(squares[i], i * i);
  }
}

TEST(ParallelMapTest, SingleIndexRunsOnCaller) {
  ThreadPool pool(2);
  std::vector<int> out = ParallelMap(&pool, 1, [](size_t) { return 41; });
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 41);
}

TEST(ParallelMapTest, NullPoolRunsInIndexOrderOnCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<size_t> order;
  std::vector<size_t> out = ParallelMap(nullptr, 50, [&](size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
    return i * 3;
  });
  ASSERT_EQ(out.size(), 50u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], i * 3);
    EXPECT_EQ(order[i], i);
  }
}

TEST(CancellableParallelForTest, NoInterruptRunsEverything) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  ParallelOutcome outcome = CancellableParallelFor(
      &pool, hits.size(), [&](size_t i) { hits[i].fetch_add(1); },
      [] { return Status::Ok(); });
  EXPECT_TRUE(outcome.status.ok());
  EXPECT_EQ(outcome.completed, hits.size());
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(CancellableParallelForTest, EntryInterruptStartsNothing) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  ParallelOutcome outcome = CancellableParallelFor(
      &pool, 100, [&](size_t) { ran.fetch_add(1); },
      [] { return Status::Cancelled("before anything started"); });
  EXPECT_EQ(outcome.status.code(), StatusCode::kCancelled);
  EXPECT_EQ(outcome.completed, 0u);
  EXPECT_EQ(ran.load(), 0);
}

// A token cancelled before the batch starts: nothing runs, and the pool is
// fully reusable afterwards — a serve dispatcher reuses its pool for the
// next request after a cancelled extraction.
TEST(CancellableParallelForTest, PreCancelledTokenLeavesPoolUsable) {
  ThreadPool pool(4);
  CancelToken cancel;
  cancel.RequestCancel();
  std::atomic<int> ran{0};
  ParallelOutcome outcome = CancellableParallelFor(
      &pool, 64, [&](size_t) { ran.fetch_add(1); },
      [&]() -> Status {
        return cancel.cancelled() ? Status::Cancelled("pre-cancelled")
                                  : Status::Ok();
      });
  EXPECT_EQ(outcome.status.code(), StatusCode::kCancelled);
  EXPECT_EQ(outcome.completed, 0u);
  EXPECT_EQ(ran.load(), 0);

  // The same pool must run follow-up work to completion (fresh token).
  CancelToken fresh;
  ParallelOutcome next = CancellableParallelFor(
      &pool, 64, [&](size_t) { ran.fetch_add(1); },
      [&]() -> Status {
        return fresh.cancelled() ? Status::Cancelled("unexpected")
                                 : Status::Ok();
      });
  EXPECT_TRUE(next.status.ok());
  EXPECT_EQ(next.completed, 64u);
  EXPECT_EQ(ran.load(), 64);
  pool.Submit([&] { ran.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(ran.load(), 65);
}

TEST(CancellableParallelForTest, MidwayInterruptDrainsContiguousPrefix) {
  // Once the interrupt latches, no new index is claimed, but every index
  // claimed before the latch still runs — `completed` is an exactly-once
  // contiguous prefix, which is what lets callers trust partial results.
  ThreadPool pool(4);
  constexpr size_t kCount = 200;
  std::vector<std::atomic<int>> hits(kCount);
  std::atomic<size_t> started{0};
  ParallelOutcome outcome = CancellableParallelFor(
      &pool, kCount,
      [&](size_t i) {
        started.fetch_add(1);
        hits[i].fetch_add(1);
      },
      [&]() -> Status {
        if (started.load() >= 8) {
          return Status::DeadlineExceeded("enough");
        }
        return Status::Ok();
      });
  EXPECT_EQ(outcome.status.code(), StatusCode::kDeadlineExceeded);
  // At least the 8 that tripped the interrupt, plus at most one in-flight
  // claim per strand (workers + caller) that passed its check first.
  EXPECT_GE(outcome.completed, 8u);
  EXPECT_LE(outcome.completed, 8u + pool.num_threads() + 1);
  for (size_t i = 0; i < kCount; ++i) {
    const int expected = i < outcome.completed ? 1 : 0;
    ASSERT_EQ(hits[i].load(), expected) << "index " << i;
  }
}

TEST(CancellableParallelForTest, ExceptionStopsNewIndicesAndRethrows) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  EXPECT_THROW(
      CancellableParallelFor(
          &pool, hits.size(),
          [&](size_t i) {
            hits[i].fetch_add(1);
            if (i == 3) throw std::runtime_error("index 3");
          },
          [] { return Status::Ok(); }),
      std::runtime_error);
  // An exception latches the stop bit: started indices drain, unclaimed
  // ones never run — and nothing runs twice.
  EXPECT_EQ(hits[3].load(), 1);
  for (size_t i = 0; i < hits.size(); ++i) {
    ASSERT_LE(hits[i].load(), 1) << "index " << i;
  }
}

TEST(CancellableParallelForTest, ZeroCountIsNoop) {
  ThreadPool pool(2);
  ParallelOutcome outcome = CancellableParallelFor(
      &pool, 0, [](size_t) { FAIL() << "must not be called"; },
      []() -> Status { ADD_FAILURE() << "no interrupt poll either"; return Status::Ok(); });
  EXPECT_TRUE(outcome.status.ok());
  EXPECT_EQ(outcome.completed, 0u);
}

TEST(CancellableParallelForTest, NestedCallsDoNotDeadlock) {
  // Same caller-participates guarantee as ParallelFor: the Explanation
  // Builder nests cancellable chunks inside pool tasks.
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  ParallelOutcome outer = CancellableParallelFor(
      &pool, 4,
      [&](size_t) {
        ParallelOutcome inner = CancellableParallelFor(
            &pool, 8, [&](size_t) { counter.fetch_add(1); },
            [] { return Status::Ok(); });
        EXPECT_TRUE(inner.status.ok());
      },
      [] { return Status::Ok(); });
  EXPECT_TRUE(outer.status.ok());
  EXPECT_EQ(outer.completed, 4u);
  EXPECT_EQ(counter.load(), 32);
}

TEST(CancellableParallelMapTest, ReturnsExactlyTheCompletedPrefix) {
  ThreadPool pool(4);
  std::atomic<size_t> started{0};
  ParallelOutcome outcome;
  std::vector<size_t> out = CancellableParallelMap(
      &pool, 200,
      [&](size_t i) {
        started.fetch_add(1);
        return i * i;
      },
      [&]() -> Status {
        if (started.load() >= 10) return Status::Cancelled("enough");
        return Status::Ok();
      },
      &outcome);
  EXPECT_EQ(outcome.status.code(), StatusCode::kCancelled);
  ASSERT_EQ(out.size(), outcome.completed);
  EXPECT_GE(out.size(), 10u);
  EXPECT_LT(out.size(), 200u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], i * i) << "index " << i;
  }
}

TEST(CancellableParallelMapTest, UninterruptedMapMatchesPlainMap) {
  ThreadPool pool(4);
  ParallelOutcome outcome;
  std::vector<size_t> out = CancellableParallelMap(
      &pool, 100, [](size_t i) { return i + 1; },
      [] { return Status::Ok(); }, &outcome);
  EXPECT_TRUE(outcome.status.ok());
  ASSERT_EQ(out.size(), 100u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], i + 1);
  }
}

TEST(CancellableParallelMapTest, InlinePathIsThePlainCheckedLoop) {
  // A null pool, and a pool with a single index, run on the caller: the
  // interrupt is checked before each index, and when its (k+1)-th check
  // fails exactly k results come back and fn(k) is never called.
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  struct Case {
    ThreadPool* pool;
    size_t count;
  };
  for (const Case& c : {Case{nullptr, 6}, Case{&pool, 1}}) {
    for (size_t k = 0; k <= c.count; ++k) {
      SCOPED_TRACE(testing::Message() << "pool=" << (c.pool != nullptr)
                                      << " count=" << c.count << " k=" << k);
      size_t checks = 0;
      std::vector<size_t> called;
      ParallelOutcome outcome;
      std::vector<size_t> out = CancellableParallelMap(
          c.pool, c.count,
          [&](size_t i) {
            EXPECT_EQ(std::this_thread::get_id(), caller);
            called.push_back(i);
            return i + 10;
          },
          [&]() -> Status {
            return ++checks == k + 1 ? Status::Cancelled("stop")
                                     : Status::Ok();
          },
          &outcome);
      const size_t ran = std::min(k, c.count);
      EXPECT_EQ(outcome.completed, ran);
      EXPECT_EQ(checks, std::min(k + 1, c.count));
      ASSERT_EQ(out.size(), ran);
      ASSERT_EQ(called.size(), ran);
      for (size_t i = 0; i < ran; ++i) {
        EXPECT_EQ(out[i], i + 10);
        EXPECT_EQ(called[i], i);
      }
      if (k < c.count) {
        EXPECT_EQ(outcome.status.code(), StatusCode::kCancelled);
        EXPECT_EQ(outcome.status.message(), "stop");
      } else {
        EXPECT_TRUE(outcome.status.ok());
      }
    }
  }
}

TEST(ParallelEvalTest, MatchesSequentialBitForBit) {
  Dataset dataset = testing_util::MakeToyDataset();
  auto model = testing_util::TrainToyModel(ModelKind::kComplEx, dataset);
  EvalOptions sequential;
  sequential.num_threads = 1;
  EvalOptions parallel;
  parallel.num_threads = 4;
  EvalResult a = EvaluateTest(*model, dataset, sequential);
  EvalResult b = EvaluateTest(*model, dataset, parallel);
  EXPECT_EQ(a.tail_ranks.ranks(), b.tail_ranks.ranks());
  EXPECT_EQ(a.head_ranks.ranks(), b.head_ranks.ranks());
  EXPECT_DOUBLE_EQ(a.Mrr(), b.Mrr());
  EXPECT_DOUBLE_EQ(a.HitsAt1(), b.HitsAt1());
}

TEST(ParallelEvalTest, TailOnlyParallelMatchesToo) {
  Dataset dataset = testing_util::MakeToyDataset();
  auto model = testing_util::TrainToyModel(ModelKind::kTransE, dataset);
  EvalOptions sequential;
  sequential.include_heads = false;
  EvalOptions parallel = sequential;
  parallel.num_threads = 3;
  EvalResult a = EvaluateTest(*model, dataset, sequential);
  EvalResult b = EvaluateTest(*model, dataset, parallel);
  EXPECT_EQ(a.tail_ranks.ranks(), b.tail_ranks.ranks());
  EXPECT_EQ(b.head_ranks.count(), 0u);
}

}  // namespace
}  // namespace kelpie
