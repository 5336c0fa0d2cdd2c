#include "exec/thread_pool.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "obs/scoped_timer.h"

namespace anonsafe {
namespace exec {

size_t HostCores() {
  // hardware_concurrency() reads the system each call, which costs
  // microseconds; the answer does not change while the process runs.
  static const size_t cores =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  return cores;
}

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  depth_gauge_ = registry.GetGauge("anonsafe_exec_queue_depth",
                                   "Tasks submitted but not yet taken");
  tasks_counter_ = registry.GetCounter("anonsafe_exec_tasks_total",
                                       "Tasks executed by the pool");
  latency_hist_ = registry.GetHistogram("anonsafe_exec_task_seconds", {},
                                        "Task execution latency");
  if (obs::MetricsEnabled()) {
    registry
        .GetGauge("anonsafe_exec_pool_threads", "Workers in the process pool")
        ->Set(static_cast<double>(num_threads));
  }

  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool* pool =
      new ThreadPool(HostCores() > 1 ? HostCores() - 1 : 1);
  return *pool;
}

void ThreadPool::Submit(std::function<void()> task) {
  size_t depth;
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push_back(std::move(task));
    depth = tasks_.size();
  }
  if (obs::MetricsEnabled()) {
    depth_gauge_->Set(static_cast<double>(depth));
  }
  wake_cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    size_t depth;
    {
      std::unique_lock<std::mutex> lock(mu_);
      wake_cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopped
      task = std::move(tasks_.front());
      tasks_.pop_front();
      depth = tasks_.size();
    }
    if (!obs::MetricsEnabled()) {
      task();
      continue;
    }
    depth_gauge_->Set(static_cast<double>(depth));
    tasks_counter_->Increment();
    obs::Stopwatch watch;
    task();
    latency_hist_->Observe(watch.Seconds());
  }
}

}  // namespace exec
}  // namespace anonsafe
