#include "common/thread_pool.h"

#include <algorithm>
#include <chrono>

#include "common/logging.h"
#include "common/metric_names.h"
#include "common/metrics.h"

namespace cackle {
namespace {

/// Identifies the pool (and queue index) the current thread works for, so
/// submissions from inside a task land on the submitting worker's own deque
/// and cross-pool nesting cannot mis-route.
thread_local const ThreadPool* g_worker_pool = nullptr;
thread_local int g_worker_index = -1;
/// Pool tasks the current thread is inside (nested helper runs included).
thread_local int g_tasks_running = 0;

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  CACKLE_CHECK_GE(num_threads, 1);
  queues_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_release);
  {
    // Empty critical section: pairs with the predicate check under idle_mu_
    // so no worker can miss the stop signal between check and wait.
    MutexLock lock(&idle_mu_);
  }
  idle_cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
  CACKLE_CHECK_EQ(queued_.load(std::memory_order_acquire), 0)
      << "thread pool destroyed with queued tasks";
}

void ThreadPool::Submit(Task task) {
  size_t target;
  if (g_worker_pool == this) {
    target = static_cast<size_t>(g_worker_index);
  } else {
    target = static_cast<size_t>(
        next_queue_.fetch_add(1, std::memory_order_relaxed) % queues_.size());
  }
  int64_t depth;
  {
    WorkerQueue& q = *queues_[target];
    MutexLock lock(&q.mu);
    q.tasks.push_back(std::move(task));
    depth = static_cast<int64_t>(q.tasks.size());
  }
  queued_.fetch_add(1, std::memory_order_release);
  tasks_submitted_.fetch_add(1, std::memory_order_relaxed);
  int64_t seen = max_queue_depth_.load(std::memory_order_relaxed);
  while (depth > seen &&
         !max_queue_depth_.compare_exchange_weak(seen, depth,
                                                 std::memory_order_relaxed)) {
  }
  idle_cv_.NotifyOne();
}

bool ThreadPool::PopOwn(int worker, Task* out) {
  WorkerQueue& q = *queues_[static_cast<size_t>(worker)];
  MutexLock lock(&q.mu);
  if (q.tasks.empty()) return false;
  *out = std::move(q.tasks.back());
  q.tasks.pop_back();
  queued_.fetch_sub(1, std::memory_order_release);
  return true;
}

bool ThreadPool::StealTasks(int thief, Task* out) {
  const size_t n = queues_.size();
  const size_t start = thief >= 0 ? static_cast<size_t>(thief) + 1
                                  : static_cast<size_t>(next_queue_.load(
                                        std::memory_order_relaxed));
  for (size_t v = 0; v < n; ++v) {
    const size_t victim = (start + v) % n;
    if (thief >= 0 && victim == static_cast<size_t>(thief)) continue;
    std::vector<Task> taken;
    {
      WorkerQueue& q = *queues_[victim];
      MutexLock lock(&q.mu);
      const size_t avail = q.tasks.size();
      if (avail == 0) continue;
      // Steal half (at least one), from the front: the oldest work, which
      // the owner — popping LIFO at the back — would reach last.
      const size_t take = thief >= 0 ? (avail + 1) / 2 : 1;
      taken.reserve(take);
      for (size_t i = 0; i < take; ++i) {
        taken.push_back(std::move(q.tasks.front()));
        q.tasks.pop_front();
      }
      queued_.fetch_sub(static_cast<int64_t>(take), std::memory_order_release);
    }
    steals_.fetch_add(1, std::memory_order_relaxed);
    tasks_stolen_.fetch_add(static_cast<int64_t>(taken.size()),
                            std::memory_order_relaxed);
    *out = std::move(taken.front());
    if (taken.size() > 1) {
      // Re-home the rest onto the thief's own deque.
      const size_t home = static_cast<size_t>(thief);
      {
        WorkerQueue& q = *queues_[home];
        MutexLock lock(&q.mu);
        for (size_t i = 1; i < taken.size(); ++i) {
          q.tasks.push_back(std::move(taken[i]));
        }
      }
      queued_.fetch_add(static_cast<int64_t>(taken.size()) - 1,
                        std::memory_order_release);
      idle_cv_.NotifyOne();
    }
    return true;
  }
  return false;
}

void ThreadPool::Execute(Task task, bool helper) {
  const ScopedLogContext ctx(task.group != nullptr ? task.group->context()
                                                   : std::string());
  const auto t0 = std::chrono::steady_clock::now();
  ++g_tasks_running;
  task.fn();
  --g_tasks_running;
  const int64_t micros = std::chrono::duration_cast<std::chrono::microseconds>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  busy_micros_.fetch_add(micros, std::memory_order_relaxed);
  tasks_run_.fetch_add(1, std::memory_order_relaxed);
  if (helper) helper_runs_.fetch_add(1, std::memory_order_relaxed);
  // TaskDone last: it may release a waiter that destroys the group.
  if (task.group != nullptr) task.group->TaskDone();
}

bool ThreadPool::RunningTask() { return g_tasks_running > 0; }

bool ThreadPool::RunOneTask(int worker) {
  Task task;
  if (worker >= 0 && PopOwn(worker, &task)) {
    Execute(std::move(task), /*helper=*/false);
    return true;
  }
  if (StealTasks(worker, &task)) {
    Execute(std::move(task), /*helper=*/worker < 0);
    return true;
  }
  return false;
}

void ThreadPool::WorkerLoop(int worker) {
  g_worker_pool = this;
  g_worker_index = worker;
  for (;;) {
    if (RunOneTask(worker)) continue;
    MutexLock lock(&idle_mu_);
    // The timeout self-heals the rare window where stolen tasks are being
    // re-homed (invisible to queued_) while every other worker dozes off.
    idle_cv_.WaitFor(idle_mu_, std::chrono::milliseconds(50), [this] {
      return stop_.load(std::memory_order_acquire) ||
             queued_.load(std::memory_order_acquire) > 0;
    });
    if (stop_.load(std::memory_order_acquire) &&
        queued_.load(std::memory_order_acquire) <= 0) {
      return;
    }
  }
}

ThreadPool::Stats ThreadPool::stats() const {
  Stats s;
  s.tasks_submitted = tasks_submitted_.load(std::memory_order_relaxed);
  s.tasks_run = tasks_run_.load(std::memory_order_relaxed);
  s.steals = steals_.load(std::memory_order_relaxed);
  s.tasks_stolen = tasks_stolen_.load(std::memory_order_relaxed);
  s.helper_runs = helper_runs_.load(std::memory_order_relaxed);
  s.busy_micros = busy_micros_.load(std::memory_order_relaxed);
  s.max_queue_depth = max_queue_depth_.load(std::memory_order_relaxed);
  return s;
}

void ThreadPool::ExportMetrics(MetricsRegistry* metrics,
                               const std::string& prefix) const {
  namespace mn = metric_names;
  const Stats s = stats();
  metrics->SetCounter(prefix + mn::kSuffixWorkers, num_threads());
  metrics->SetCounter(prefix + mn::kSuffixTasksSubmitted, s.tasks_submitted);
  metrics->SetCounter(prefix + mn::kSuffixTasksRun, s.tasks_run);
  metrics->SetCounter(prefix + mn::kSuffixSteals, s.steals);
  metrics->SetCounter(prefix + mn::kSuffixTasksStolen, s.tasks_stolen);
  metrics->SetCounter(prefix + mn::kSuffixHelperRuns, s.helper_runs);
  metrics->SetCounter(prefix + mn::kSuffixBusyMicros, s.busy_micros);
  metrics->SetCounter(prefix + mn::kSuffixMaxQueueDepth, s.max_queue_depth);
}

TaskGroup::TaskGroup(ThreadPool* pool, std::string context)
    : pool_(pool), context_(std::move(context)) {
  CACKLE_CHECK(pool_ != nullptr);
}

TaskGroup::~TaskGroup() {
  CACKLE_CHECK_EQ(outstanding_.load(std::memory_order_acquire), 0)
      << "task group '" << context_ << "' destroyed with outstanding tasks";
}

void TaskGroup::Submit(std::function<void()> fn) {
  outstanding_.fetch_add(1, std::memory_order_acq_rel);
  pool_->Submit(ThreadPool::Task{std::move(fn), this});
}

void TaskGroup::TaskDone() {
  // Decrement under mu_: Wait() only returns after observing zero while
  // holding mu_, which therefore happens-after this critical section — the
  // last touch of the group by any pool thread — so the caller may destroy
  // the group the moment Wait() returns.
  MutexLock lock(&mu_);
  if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    cv_.NotifyAll();
  }
}

void TaskGroup::Wait() {
  for (;;) {
    // Help drain the pool instead of idling: the waiter acts as one more
    // executor, which also makes nested waits from pool threads safe.
    if (outstanding_.load(std::memory_order_acquire) > 0 &&
        pool_->RunOneTask(g_worker_pool == pool_ ? g_worker_index : -1)) {
      continue;
    }
    MutexLock lock(&mu_);
    if (outstanding_.load(std::memory_order_acquire) == 0) return;
    cv_.WaitFor(mu_, std::chrono::milliseconds(1), [this] {
      return outstanding_.load(std::memory_order_acquire) == 0;
    });
    if (outstanding_.load(std::memory_order_acquire) == 0) return;
  }
}

}  // namespace cackle
