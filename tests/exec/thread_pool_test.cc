// ThreadPool, ParallelFor, and TaskGroup: scheduling, inline-degradation
// safety, Status/exception propagation, and cooperative cancellation.
#include <atomic>
#include <set>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "exec/parallel.h"
#include "exec/thread_pool.h"
#include "obs/context.h"

namespace ems {
namespace exec {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(pool.Submit([&ran] { ran.fetch_add(1); }));
  }
  pool.Shutdown();  // drains the queue before joining
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPoolTest, SubmitAfterShutdownFails) {
  ThreadPool pool(2);
  pool.Shutdown();
  EXPECT_FALSE(pool.Submit([] {}));
  EXPECT_FALSE(pool.TrySubmit([] {}));
  pool.Shutdown();  // idempotent
}

TEST(ThreadPoolTest, EffectiveThreadsResolvesZeroToHardware) {
  EXPECT_GE(ThreadPool::EffectiveThreads(0), 1);
  EXPECT_EQ(ThreadPool::EffectiveThreads(1), 1);
  EXPECT_EQ(ThreadPool::EffectiveThreads(7), 7);
  EXPECT_GE(ThreadPool::EffectiveThreads(-3), 1);
}

TEST(ThreadPoolTest, InWorkerThreadDistinguishesWorkers) {
  ThreadPool pool(2);
  EXPECT_FALSE(pool.InWorkerThread());
  std::atomic<bool> inside{false};
  ASSERT_TRUE(pool.Submit([&] { inside.store(pool.InWorkerThread()); }));
  pool.Shutdown();
  EXPECT_TRUE(inside.load());
}

TEST(ThreadPoolTest, RecordsMetricsWhenObserved) {
  ObsContext obs;
  ThreadPoolOptions options;
  options.num_threads = 2;
  options.obs = &obs;
  {
    ThreadPool pool(options);
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(pool.Submit([] {}));
    }
  }
  EXPECT_EQ(obs.metrics.CounterValue("exec.pool.tasks_submitted"), 10u);
  EXPECT_EQ(obs.metrics.CounterValue("exec.pool.tasks_completed"), 10u);
  EXPECT_EQ(
      obs.metrics.GetQuantileHistogram("exec.pool.task_millis")->count(), 10u);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 500;
  std::vector<std::atomic<int>> hits(kN);
  ParallelFor(&pool, 0, kN, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelForTest, NullPoolRunsInlineInOrder) {
  std::vector<size_t> order;
  ParallelFor(nullptr, 3, 8, [&](size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<size_t>{3, 4, 5, 6, 7}));
}

TEST(ParallelForTest, ChunkGeometryIsAPureFunctionOfInputs) {
  // The same (range, max_chunks) must produce the same chunks whether or
  // not a pool is present — this is what makes per-chunk reductions
  // bit-identical across thread counts.
  auto collect = [](ThreadPool* pool) {
    std::mutex mu;
    std::set<std::pair<size_t, size_t>> ranges;
    ParallelForChunks(pool, 0, 10, 4, [&](int, size_t b, size_t e) {
      std::lock_guard<std::mutex> lock(mu);
      ranges.insert({b, e});
    });
    return ranges;
  };
  ThreadPool pool(4);
  const auto expected =
      std::set<std::pair<size_t, size_t>>{{0, 3}, {3, 6}, {6, 8}, {8, 10}};
  EXPECT_EQ(collect(nullptr), expected);
  EXPECT_EQ(collect(&pool), expected);
}

TEST(ParallelForTest, NestedCallFromWorkerDegradesInsteadOfDeadlocking) {
  ThreadPool pool(2);
  std::atomic<int> inner_ran{0};
  ParallelFor(&pool, 0, 4, [&](size_t) {
    // Nested parallelism on the same pool must run inline, not deadlock
    // on the bounded queue.
    ParallelFor(&pool, 0, 8, [&](size_t) { inner_ran.fetch_add(1); });
  });
  EXPECT_EQ(inner_ran.load(), 32);
}

TEST(TaskGroupTest, WaitReturnsOkWhenAllTasksSucceed) {
  ThreadPool pool(3);
  TaskGroup group(&pool);
  std::atomic<int> ran{0};
  for (int i = 0; i < 20; ++i) {
    group.Run([&ran]() -> Status {
      ran.fetch_add(1);
      return Status::OK();
    });
  }
  EXPECT_TRUE(group.Wait().ok());
  EXPECT_EQ(ran.load(), 20);
}

TEST(TaskGroupTest, FirstErrorWinsAndCancelsTheGroup) {
  ThreadPool pool(2);
  TaskGroup group(&pool);
  group.Run([]() -> Status { return Status::InvalidArgument("boom"); });
  Status status = group.Wait();
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_TRUE(group.cancelled());  // an error cancels the remaining tasks
}

TEST(TaskGroupTest, ExceptionBecomesInternalStatus) {
  ThreadPool pool(2);
  TaskGroup group(&pool);
  group.Run([]() -> Status { throw std::runtime_error("kaboom"); });
  Status status = group.Wait();
  EXPECT_TRUE(status.IsInternal());
  EXPECT_NE(status.message().find("kaboom"), std::string::npos);
}

TEST(TaskGroupTest, CancellationStopsTasksMidBatch) {
  ThreadPool pool(2);
  CancellationSource source;
  TaskGroup group(&pool, source.token());
  std::atomic<int> executed{0};
  for (int i = 0; i < 200; ++i) {
    group.Run([&]() -> Status {
      if (group.cancelled()) return Status::OK();  // honor the token
      if (executed.fetch_add(1) == 4) source.Cancel();
      return Status::OK();
    });
  }
  Status status = group.Wait();
  EXPECT_TRUE(status.IsCancelled());
  // The batch stopped well short of 200 once the source fired.
  EXPECT_LT(executed.load(), 200);
  EXPECT_GE(executed.load(), 5);
}

TEST(TaskGroupTest, NullPoolRunsTasksInline) {
  TaskGroup group(nullptr);
  int ran = 0;
  group.Run([&ran]() -> Status {
    ++ran;
    return Status::OK();
  });
  EXPECT_EQ(ran, 1);  // already executed, before Wait
  EXPECT_TRUE(group.Wait().ok());
}

}  // namespace
}  // namespace exec
}  // namespace ems
