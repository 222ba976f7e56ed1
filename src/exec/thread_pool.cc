#include "exec/thread_pool.h"

#include "obs/context.h"
#include "util/timer.h"

namespace ems {
namespace exec {

namespace {

// Identifies the pool owning the current thread (null on non-worker
// threads); lets nested parallel constructs detect re-entrancy.
thread_local const ThreadPool* t_current_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(const ThreadPoolOptions& options)
    : queue_(options.queue_capacity > 0 ? options.queue_capacity : 1) {
  if (options.obs != nullptr) {
    MetricsRegistry& m = options.obs->metrics;
    tasks_submitted_ = m.GetCounter("exec.pool.tasks_submitted");
    tasks_completed_ = m.GetCounter("exec.pool.tasks_completed");
    task_millis_ = m.GetQuantileHistogram("exec.pool.task_millis");
    queue_depth_ = m.GetQuantileHistogram("exec.pool.queue_depth");
    queued_tasks_ = m.GetGauge("exec.pool.queued_tasks");
  }
  const int n = EffectiveThreads(options.num_threads);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::ThreadPool(int num_threads)
    : ThreadPool(ThreadPoolOptions{num_threads, 1024, nullptr}) {}

ThreadPool::~ThreadPool() { Shutdown(); }

int ThreadPool::EffectiveThreads(int requested) {
  int n = requested;
  if (n <= 0) n = static_cast<int>(std::thread::hardware_concurrency());
  return n > 0 ? n : 1;
}

void ThreadPool::WorkerLoop() {
  t_current_pool = this;
  while (true) {
    std::optional<std::function<void()>> task = queue_.Pop();
    if (!task.has_value()) break;  // closed and drained
    if (task_millis_ != nullptr) {
      Timer timer;
      (*task)();
      task_millis_->Observe(timer.ElapsedMillis());
    } else {
      (*task)();
    }
    if (tasks_completed_ != nullptr) tasks_completed_->Increment();
    if (queued_tasks_ != nullptr) {
      queued_tasks_->Set(static_cast<double>(queue_.size()));
    }
  }
  t_current_pool = nullptr;
}

bool ThreadPool::InWorkerThread() const { return t_current_pool == this; }

void ThreadPool::RecordSubmit() {
  if (tasks_submitted_ != nullptr) tasks_submitted_->Increment();
  if (queue_depth_ != nullptr || queued_tasks_ != nullptr) {
    const double depth = static_cast<double>(queue_.size());
    if (queue_depth_ != nullptr) queue_depth_->Observe(depth);
    if (queued_tasks_ != nullptr) queued_tasks_->Set(depth);
  }
}

bool ThreadPool::Submit(std::function<void()> task) {
  if (!queue_.Push(std::move(task))) return false;
  RecordSubmit();
  return true;
}

bool ThreadPool::TrySubmit(std::function<void()> task) {
  if (!queue_.TryPush(std::move(task))) return false;
  RecordSubmit();
  return true;
}

void ThreadPool::Shutdown() {
  if (shutdown_) return;
  shutdown_ = true;
  queue_.Close();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
}

}  // namespace exec
}  // namespace ems
