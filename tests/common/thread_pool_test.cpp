// ThreadPool: coverage, reuse, exceptions, nested sequential calls.

#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "common/error.hpp"

namespace orv {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(1000);
  pool.parallel_for(1000, [&](std::size_t i) { counts[i]++; });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, ZeroIterationsIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [&](std::size_t) { FAIL(); });
}

TEST(ThreadPool, SingleThreadWorks) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<int> sum{0};
  pool.parallel_for(100, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(17, [&](std::size_t) { count++; });
    ASSERT_EQ(count.load(), 17) << "round " << round;
  }
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::size_t i) {
                                   if (i == 13) throw IoError("boom");
                                 }),
               IoError);
  // Pool still usable afterwards.
  std::atomic<int> count{0};
  pool.parallel_for(10, [&](std::size_t) { count++; });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, MoreIterationsThanThreads) {
  ThreadPool pool(2);
  std::atomic<long> sum{0};
  pool.parallel_for(100000, [&](std::size_t i) {
    sum += static_cast<long>(i % 7);
  });
  long expected = 0;
  for (std::size_t i = 0; i < 100000; ++i) expected += i % 7;
  EXPECT_EQ(sum.load(), expected);
}

TEST(ThreadPool, DefaultsToHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_GE(pool.num_threads(), 1u);
}

TEST(ThreadPool, ExplicitGrainCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  for (std::size_t grain : {1u, 3u, 7u, 64u, 1000u, 5000u}) {
    std::vector<std::atomic<int>> counts(1000);
    pool.parallel_for(
        1000, [&](std::size_t i) { counts[i]++; }, grain);
    for (std::size_t i = 0; i < counts.size(); ++i) {
      ASSERT_EQ(counts[i].load(), 1) << "grain " << grain << " index " << i;
    }
  }
}

TEST(ThreadPool, GrainLargerThanRangeRunsSequentially) {
  ThreadPool pool(4);
  // One chunk swallows the whole range: indices must arrive in order on a
  // single thread.
  std::vector<std::size_t> order;
  pool.parallel_for(
      100, [&](std::size_t i) { order.push_back(i); }, 1000);
  ASSERT_EQ(order.size(), 100u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, ExceptionMidChunkPropagatesAndPoolStaysUsable) {
  ThreadPool pool(4);
  // The throwing index sits mid-chunk (grain 16): the chunk's remaining
  // indices are abandoned but the completion invariant must still hold —
  // a hang here means completed_ never catches up to next_index_.
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.parallel_for(
                   1000,
                   [&](std::size_t i) {
                     if (i % 100 == 50) throw IoError("mid-chunk boom");
                     ran++;
                   },
                   16),
               IoError);
  EXPECT_LT(ran.load(), 1000);

  // Subsequent jobs see a clean pool: full coverage, fresh exception slot.
  for (int round = 0; round < 5; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(
        333, [&](std::size_t) { count++; }, 8);
    ASSERT_EQ(count.load(), 333) << "round " << round;
  }
}

TEST(ThreadPool, ExceptionInEveryChunkStillCompletes) {
  ThreadPool pool(3);
  // First exception wins; the rest are swallowed without deadlocking the
  // done_cv_ wait.
  EXPECT_THROW(pool.parallel_for(
                   300, [&](std::size_t) { throw IoError("all boom"); }, 10),
               IoError);
  std::atomic<int> count{0};
  pool.parallel_for(10, [&](std::size_t) { count++; });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, LateWorkerAfterAbortedJobDoesNotDispatch) {
  // Oversubscribe so workers often wake only after an aborted job has
  // already returned on the caller. Such a late worker must find the job
  // retired rather than dispatch the rest of its indices through a
  // cleared job function.
  const std::size_t threads =
      std::max<std::size_t>(8, 4 * std::thread::hardware_concurrency());
  ThreadPool pool(threads);
  for (int round = 0; round < 200; ++round) {
    EXPECT_THROW(pool.parallel_for(
                     64, [&](std::size_t) { throw IoError("abort"); }, 1),
                 IoError);
    std::atomic<int> count{0};
    pool.parallel_for(
        64, [&](std::size_t) { count++; }, 1);
    ASSERT_EQ(count.load(), 64) << "round " << round;
  }
}

}  // namespace
}  // namespace orv
