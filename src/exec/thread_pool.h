// Fixed-size worker pool over a bounded MPMC queue — the execution
// substrate shared by the parallel EMS iteration, the harness sweeps,
// and the batch matching service. Submission blocks when the queue is
// full (backpressure), workers run tasks to completion, and an optional
// ObsContext records queue depth, task latency, and throughput counters.
#pragma once

#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "exec/task_queue.h"

namespace ems {

struct ObsContext;
class Counter;
class Gauge;
class QuantileHistogram;

namespace exec {

/// Pool configuration.
struct ThreadPoolOptions {
  /// Worker count; 0 = hardware concurrency.
  int num_threads = 0;

  /// Bounded queue capacity; submission blocks beyond this.
  size_t queue_capacity = 1024;

  /// Observability sink for pool metrics (exec.pool.*); null disables.
  /// Borrowed, must outlive the pool.
  ObsContext* obs = nullptr;
};

/// \brief Fixed-size thread pool with a bounded task queue.
///
/// Threads start in the constructor and join in Shutdown (or the
/// destructor). Tasks must not throw — TaskGroup (parallel.h) wraps
/// fallible work and converts exceptions to Status; raw Submit callers
/// get std::terminate on escape, as with std::thread.
class ThreadPool {
 public:
  explicit ThreadPool(const ThreadPoolOptions& options);
  /// Convenience: `num_threads` workers, default capacity, no metrics.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task, blocking while the queue is full. Returns false
  /// after Shutdown.
  bool Submit(std::function<void()> task);

  /// Non-blocking submit; false when the queue is full or shut down.
  bool TrySubmit(std::function<void()> task);

  /// Closes the queue, drains remaining tasks, joins all workers.
  /// Idempotent; called by the destructor.
  void Shutdown();

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Tasks currently waiting in the queue (racy snapshot, for metrics).
  size_t QueueDepth() const { return queue_.size(); }

  /// The bounded queue's capacity — the admission-control headroom a
  /// router compares QueueDepth against.
  size_t QueueCapacity() const { return queue_.capacity(); }

  /// True when the calling thread is one of this pool's workers. Used by
  /// ParallelFor/TaskGroup to degrade to inline execution instead of
  /// deadlocking on nested submission into a saturated queue.
  bool InWorkerThread() const;

  /// Resolves a requested thread count: 0 means hardware concurrency,
  /// minimum 1.
  static int EffectiveThreads(int requested);

 private:
  void WorkerLoop();
  void RecordSubmit();

  BoundedTaskQueue<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool shutdown_ = false;

  // Instruments resolved once at construction; null when obs is null.
  Counter* tasks_submitted_ = nullptr;
  Counter* tasks_completed_ = nullptr;
  QuantileHistogram* task_millis_ = nullptr;
  QuantileHistogram* queue_depth_ = nullptr;
  // Live queue depth (exec.pool.queued_tasks), refreshed on submit and
  // task completion — the admission-control signal a health endpoint
  // reads, where the histogram above records the distribution.
  Gauge* queued_tasks_ = nullptr;
};

}  // namespace exec
}  // namespace ems
