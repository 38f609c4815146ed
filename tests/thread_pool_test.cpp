#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace flip {
namespace {

using Clock = std::chrono::steady_clock;

// Counts the calling thread in and waits until `n` threads have, or until
// `deadline`; returns whether all `n` did. A pool that runs fewer than `n`
// of the waiting bodies at once fails by the deadline instead of hanging.
bool meet(std::atomic<int>& count, int n, Clock::time_point deadline) {
  ++count;
  while (count.load() < n && Clock::now() < deadline) {
    std::this_thread::yield();
  }
  return count.load() >= n;
}

TEST(ThreadPoolTest, DefaultHasAtLeastOneWorker) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPoolTest, ParallelForRunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.parallel_for(kCount, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ZeroCountIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, SingleIterationRunsInline) {
  ThreadPool pool(2);
  int count = 0;
  pool.parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++count;
  });
  EXPECT_EQ(count, 1);
}

TEST(ThreadPoolTest, PropagatesException) {
  ThreadPool pool(3);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [](std::size_t i) {
                          if (i == 37) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPoolTest, ReusableAcrossCalls) {
  ThreadPool pool(2);
  std::atomic<long> sum{0};
  for (int pass = 0; pass < 5; ++pass) {
    pool.parallel_for(100, [&](std::size_t i) {
      sum += static_cast<long>(i);
    });
  }
  EXPECT_EQ(sum.load(), 5 * (99 * 100 / 2));
}

TEST(ThreadPoolTest, SharedPoolIsSingleton) {
  EXPECT_EQ(&ThreadPool::shared(), &ThreadPool::shared());
}

TEST(ThreadPoolTest, MoreTasksThanWorkers) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.parallel_for(64, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 64);
}

// parallel_for is re-entrant (a nested call's caller runs every index no
// idle worker takes): N outer tasks each fanning out M inner tasks on the
// SAME pool must complete even when every worker is inside an outer body —
// the deadlock shape the sharded BatchEngine creates inside parallel sweeps.
TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(4);
  std::atomic<int> inner_runs{0};
  pool.parallel_for(8, [&](std::size_t) {
    pool.parallel_for(8, [&](std::size_t) {
      inner_runs.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(inner_runs.load(), 64);
}

TEST(ThreadPoolTest, NestedParallelForPropagatesInnerException) {
  ThreadPool pool(3);
  EXPECT_THROW(
      pool.parallel_for(4,
                        [&](std::size_t outer) {
                          pool.parallel_for(4, [&](std::size_t inner) {
                            if (outer == 2 && inner == 3) {
                              throw std::runtime_error("inner boom");
                            }
                          });
                        }),
      std::runtime_error);
}

// A nested call hands its indices to the workers left idle, so a sweep
// with fewer trials than workers still spreads each trial's shards. Outer
// index 1 returns at once; the inner call of outer index 0 completes only
// if its caller and two idle workers really run at once, whichever thread
// runs it (three workers at most run indices, a core left to the caller).
TEST(ThreadPoolTest, NestedCallUsesIdleWorkers) {
  ThreadPool pool(4);
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  std::atomic<int> started{0};
  std::atomic<int> met{0};
  pool.parallel_for(2, [&](std::size_t outer) {
    if (outer != 0) return;
    pool.parallel_for(3, [&](std::size_t) {
      if (meet(started, 3, deadline)) ++met;
    });
  });
  EXPECT_EQ(met.load(), 3);
}

// While every worker runs an outer index, a nested call finds no thread
// to spare and runs on its caller: a sweep with a trial on every worker
// keeps each trial's shards on its own thread instead of waking more
// threads than the pool has. Outer bodies meet before and after their
// inner calls, so all four stay busy while any inner call runs.
TEST(ThreadPoolTest, SaturatedPoolRunsNestedCallsOnTheirCallers) {
  ThreadPool pool(4);
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  std::atomic<int> before{0};
  std::atomic<int> after{0};
  std::atomic<int> met{0};
  std::atomic<int> foreign{0};
  std::atomic<int> inner_runs{0};
  pool.parallel_for(4, [&](std::size_t) {
    if (meet(before, 4, deadline)) ++met;
    const std::thread::id caller = std::this_thread::get_id();
    pool.parallel_for(8, [&](std::size_t) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      if (std::this_thread::get_id() != caller) ++foreign;
      ++inner_runs;
    });
    meet(after, 4, deadline);
  });
  EXPECT_EQ(met.load(), 4);
  EXPECT_EQ(inner_runs.load(), 32);
  EXPECT_EQ(foreign.load(), 0);
}

// A thread inside a body never runs another call's indices: only idle
// workers join, and a caller waiting on its own call runs nothing else. A
// sweep's worker therefore runs one trial at a time, which is what lets
// TrialArena keep one arena per thread.
TEST(ThreadPoolTest, NoThreadInsideABodyRunsAnotherCall) {
  ThreadPool pool(4);
  constexpr std::size_t kNone = ~std::size_t{0};
  thread_local std::size_t inside = kNone;  // outer index this thread runs
  std::atomic<int> foreign{0};
  std::atomic<int> inner_runs{0};
  pool.parallel_for(8, [&](std::size_t outer) {
    if (inside != kNone) ++foreign;
    inside = outer;
    pool.parallel_for(8, [&](std::size_t) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      if (inside != kNone && inside != outer) ++foreign;
      ++inner_runs;
    });
    inside = kNone;
  });
  EXPECT_EQ(inner_runs.load(), 64);
  EXPECT_EQ(foreign.load(), 0);
}

TEST(ThreadPoolTest, ConcurrentCallersEachSeeEveryIndexOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kCount = 200;
  for (int pass = 0; pass < 50; ++pass) {
    std::vector<std::atomic<int>> a(kCount);
    std::vector<std::atomic<int>> b(kCount);
    std::thread other([&] {
      pool.parallel_for(kCount, [&](std::size_t i) { ++b[i]; });
    });
    pool.parallel_for(kCount, [&](std::size_t i) { ++a[i]; });
    other.join();
    for (std::size_t i = 0; i < kCount; ++i) {
      ASSERT_EQ(a[i].load(), 1) << "pass " << pass << " index " << i;
      ASSERT_EQ(b[i].load(), 1) << "pass " << pass << " index " << i;
    }
  }
}

// Each of four indices waits until all four have started, so the call
// completes only if the caller and three workers really run at once. A pool
// that ran everything on its caller would fail the 10 s cap.
TEST(ThreadPoolTest, FourIndicesRendezvousOnFourThreads) {
  ThreadPool pool(4);
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  std::atomic<int> started{0};
  std::atomic<int> met{0};
  pool.parallel_for(4, [&](std::size_t) {
    if (meet(started, 4, deadline)) ++met;
  });
  EXPECT_EQ(met.load(), 4);
}

}  // namespace
}  // namespace flip
