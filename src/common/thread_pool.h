#ifndef CACKLE_COMMON_THREAD_POOL_H_
#define CACKLE_COMMON_THREAD_POOL_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace cackle {

class MetricsRegistry;
class TaskGroup;

/// \brief A persistent work-stealing thread pool (the execution substrate
/// for the query executor's stage tasks).
///
/// Each worker owns a deque: the owner pushes and pops at the back (LIFO,
/// cache-friendly for task chains that spawn subtasks), thieves steal half
/// of a victim's queue from the front (FIFO end, the oldest work). Tasks
/// submitted from a pool thread land on that worker's own deque; external
/// submissions are spread round-robin. Idle workers sleep on a condition
/// variable and are woken per submission.
///
/// Tasks are plain closures grouped into TaskGroups; a group's context
/// string is installed as the thread-local log context while its tasks run,
/// so fatal CACKLE_CHECK messages from pooled work identify their origin.
///
/// The pool never aborts tasks and has no notion of priorities or
/// cancellation — callers sequence work by submitting successor tasks from
/// inside predecessors (see PlanExecutor's DAG pipelining).
///
/// Thread safety: all public methods are safe to call from any thread.
class ThreadPool {
 public:
  /// Lifetime totals, readable at any time (values are monotone; a
  /// concurrent snapshot can be mid-update but never torn).
  struct Stats {
    int64_t tasks_submitted = 0;
    int64_t tasks_run = 0;
    /// Steal operations that moved at least one task / tasks moved by them.
    int64_t steals = 0;
    int64_t tasks_stolen = 0;
    /// Tasks executed by threads helping from TaskGroup::Wait.
    int64_t helper_runs = 0;
    /// Summed wall-clock microseconds spent inside task bodies.
    int64_t busy_micros = 0;
    /// Deepest any single worker deque has been.
    int64_t max_queue_depth = 0;
  };

  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(queues_.size()); }

  /// Whether the calling thread is running a task of any pool, as a worker
  /// or as a TaskGroup::Wait helper. Code that would start threads of its
  /// own checks this so that nested parallelism cannot oversubscribe.
  static bool RunningTask();

  Stats stats() const;

  /// Exports the lifetime totals as counters under `prefix` (e.g.
  /// "exec.pool" -> exec.pool.tasks_run, exec.pool.steals, ...).
  void ExportMetrics(MetricsRegistry* metrics,
                     const std::string& prefix) const;

 private:
  friend class TaskGroup;

  struct Task {
    std::function<void()> fn;
    TaskGroup* group = nullptr;
  };

  struct WorkerQueue {
    Mutex mu;
    std::deque<Task> tasks CACKLE_GUARDED_BY(mu);
  };

  /// Enqueues a task (group-owned; called by TaskGroup::Submit).
  void Submit(Task task);
  /// Runs one queued task if any is available. `worker` is the caller's
  /// own queue index, or -1 for non-worker helpers. Returns false when
  /// every queue was observed empty.
  bool RunOneTask(int worker);
  bool PopOwn(int worker, Task* out);
  bool StealTasks(int thief, Task* out);
  void Execute(Task task, bool helper);
  void WorkerLoop(int worker);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;
  /// Pure park/unpark handshake: pairs stop_/queued_ (atomics) with
  /// idle_cv_ so a worker cannot miss a wakeup between its predicate check
  /// and the wait. Guards no plain data by design.
  Mutex idle_mu_;  // NOLINT(cackle-lock-annotation): condvar handshake only; stop_/queued_ stay atomics so the submit fast path never takes this lock.
  CondVar idle_cv_;
  std::atomic<bool> stop_{false};
  /// Round-robin cursor for external submissions.
  std::atomic<uint64_t> next_queue_{0};
  /// Tasks currently sitting in queues (not yet popped).
  std::atomic<int64_t> queued_{0};

  std::atomic<int64_t> tasks_submitted_{0};
  std::atomic<int64_t> tasks_run_{0};
  std::atomic<int64_t> steals_{0};
  std::atomic<int64_t> tasks_stolen_{0};
  std::atomic<int64_t> helper_runs_{0};
  std::atomic<int64_t> busy_micros_{0};
  std::atomic<int64_t> max_queue_depth_{0};
};

/// \brief A batch of pool tasks that can be awaited together.
///
/// Submit() enqueues a closure; Wait() blocks until every task submitted to
/// the group (including tasks submitted by other group tasks while waiting)
/// has finished. The waiting thread does not idle: it helps execute queued
/// pool work, so a group wait from the only runnable thread still makes
/// progress and a 1-worker pool plus a waiting caller behaves like two
/// executors.
///
/// `context` propagates to fatal-check/log messages of every task in the
/// group via ScopedLogContext.
///
/// A group may be reused for several submit/wait waves. It must outlive its
/// outstanding tasks (destruction checks the count is zero).
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool* pool, std::string context = "");
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  void Submit(std::function<void()> fn);
  void Wait();

  const std::string& context() const { return context_; }
  int64_t outstanding() const {
    return outstanding_.load(std::memory_order_acquire);
  }

 private:
  friend class ThreadPool;

  /// Called by the pool after a task body finishes.
  void TaskDone();

  ThreadPool* pool_;
  std::string context_;
  std::atomic<int64_t> outstanding_{0};
  /// Pure completion handshake: TaskDone() decrements outstanding_ under
  /// this lock so Wait()'s zero observation happens-after the last pool
  /// touch of the group. Guards no plain data by design.
  Mutex mu_;  // NOLINT(cackle-lock-annotation): condvar handshake only; outstanding_ stays atomic so outstanding() and the Wait fast path read it lock-free.
  CondVar cv_;
};

}  // namespace cackle

#endif  // CACKLE_COMMON_THREAD_POOL_H_
