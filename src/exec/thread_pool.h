#ifndef ANONSAFE_EXEC_THREAD_POOL_H_
#define ANONSAFE_EXEC_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace anonsafe {
namespace obs {
class Counter;
class Gauge;
class Histogram;
}  // namespace obs

namespace exec {

/// \brief The host's hardware threads (at least 1), read once per
/// process.
size_t HostCores();

/// \brief FIFO thread pool: one queue, a fixed set of workers.
///
/// The library runs one pool, `Shared()`; `ParallelForChunks` submits
/// its helpers there. Tests may build their own.
///
/// Observability (active only while `obs::MetricsEnabled()`):
///   anonsafe_exec_pool_threads     gauge    workers in the process pool
///   anonsafe_exec_queue_depth      gauge    tasks submitted but not taken
///   anonsafe_exec_tasks_total      counter  tasks executed
///   anonsafe_exec_task_seconds     histogram task execution latency
///
/// The pool never rethrows from worker threads; callers that need
/// exception propagation capture them inside the submitted closures
/// (as `ParallelForChunks` does).
class ThreadPool {
 public:
  /// \brief Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);

  /// \brief Runs the tasks still queued, then stops and joins the
  /// workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// \brief The process's pool: `HostCores() - 1` workers (at least 1),
  /// started on first use and never stopped, so that no idle worker
  /// races static destructors at exit.
  static ThreadPool& Shared();

  size_t num_threads() const { return workers_.size(); }

  /// \brief Enqueues a task. Thread-safe.
  void Submit(std::function<void()> task);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable wake_cv_;
  std::deque<std::function<void()>> tasks_;  // guarded by mu_
  bool stop_ = false;                        // guarded by mu_

  // Registry pointers are stable; resolved once at construction so the
  // hot path records without touching the registry lock.
  obs::Gauge* depth_gauge_ = nullptr;
  obs::Counter* tasks_counter_ = nullptr;
  obs::Histogram* latency_hist_ = nullptr;

  std::vector<std::thread> workers_;
};

}  // namespace exec
}  // namespace anonsafe

#endif  // ANONSAFE_EXEC_THREAD_POOL_H_
