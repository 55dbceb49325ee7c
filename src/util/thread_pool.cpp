#include "util/thread_pool.hpp"

#include <sched.h>

#include <chrono>
#include <exception>

namespace iotsan::util {

namespace {

// Which pool (if any) the current thread is a dedicated worker of, and
// on which lane.  External threads fall through to lane 0.
thread_local const ThreadPool* tls_pool = nullptr;
thread_local unsigned tls_lane = 0;
// Task bodies the current thread is running (nested when helping).
thread_local int tls_task_depth = 0;

std::atomic<PoolTimingHook> g_on_task_run{nullptr};
std::atomic<PoolTimingHook> g_on_steal_wait{nullptr};

std::uint64_t ElapsedMicros(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

// Executes one task body, timing it when a run hook is installed.  Task
// bodies catch their own exceptions (ParallelFor's wrapper), so the depth
// count needs no unwinding guard.
void RunTimed(const std::function<void()>& task) {
  ++tls_task_depth;
  const PoolTimingHook hook = g_on_task_run.load(std::memory_order_acquire);
  if (hook == nullptr) {
    task();
  } else {
    const auto start = std::chrono::steady_clock::now();
    task();
    hook(ElapsedMicros(start));
  }
  --tls_task_depth;
}

}  // namespace

void SetPoolTimingHooks(PoolTimingHook on_task_run,
                        PoolTimingHook on_steal_wait) {
  g_on_task_run.store(on_task_run, std::memory_order_release);
  g_on_steal_wait.store(on_steal_wait, std::memory_order_release);
}

unsigned ResolveJobs(int jobs) {
  if (jobs < 0) return 1;
  if (jobs > 0) return static_cast<unsigned>(jobs);
  // The CPUs this thread may run on, as `nproc` counts them: under
  // `taskset -c 0` or a CPU-limited container that is fewer than the
  // host has.
  cpu_set_t mask;
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    if (const int cpus = CPU_COUNT(&mask); cpus > 0) {
      return static_cast<unsigned>(cpus);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool::ThreadPool(unsigned jobs) : jobs_(jobs == 0 ? 1 : jobs) {
  lanes_.reserve(jobs_);
  for (unsigned i = 0; i < jobs_; ++i) {
    lanes_.push_back(std::make_unique<Lane>());
  }
  threads_.reserve(jobs_ - 1);
  for (unsigned i = 1; i < jobs_; ++i) {
    threads_.emplace_back([this, i] { WorkerMain(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    stop_.store(true);
  }
  wake_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

unsigned ThreadPool::CurrentLane() const {
  return tls_pool == this ? tls_lane : 0;
}

bool ThreadPool::InTask() { return tls_task_depth > 0; }

ThreadPool::Stats ThreadPool::stats() const {
  return {tasks_run_.load(), tasks_stolen_.load()};
}

void ThreadPool::Push(unsigned lane, std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(lanes_[lane]->mutex);
    lanes_[lane]->tasks.push_back(std::move(task));
  }
  pending_.fetch_add(1, std::memory_order_relaxed);
  wake_cv_.notify_one();
}

std::function<void()> ThreadPool::TryGet(unsigned lane) {
  {
    Lane& own = *lanes_[lane];
    std::lock_guard<std::mutex> lock(own.mutex);
    if (!own.tasks.empty()) {
      std::function<void()> task = std::move(own.tasks.back());
      own.tasks.pop_back();
      pending_.fetch_sub(1, std::memory_order_relaxed);
      tasks_run_.fetch_add(1, std::memory_order_relaxed);
      return task;
    }
  }
  for (unsigned k = 1; k < jobs_; ++k) {
    Lane& victim = *lanes_[(lane + k) % jobs_];
    std::lock_guard<std::mutex> lock(victim.mutex);
    if (!victim.tasks.empty()) {
      std::function<void()> task = std::move(victim.tasks.front());
      victim.tasks.pop_front();
      pending_.fetch_sub(1, std::memory_order_relaxed);
      tasks_run_.fetch_add(1, std::memory_order_relaxed);
      tasks_stolen_.fetch_add(1, std::memory_order_relaxed);
      return task;
    }
  }
  return nullptr;
}

void ThreadPool::WorkerMain(unsigned lane) {
  tls_pool = this;
  tls_lane = lane;
  // Steal-wait: the gap between first failing to get a task and obtaining
  // the next one.  Workers that never get another task record nothing.
  bool waiting = false;
  std::chrono::steady_clock::time_point wait_start{};
  while (true) {
    if (std::function<void()> task = TryGet(lane)) {
      if (waiting) {
        waiting = false;
        if (const PoolTimingHook hook =
                g_on_steal_wait.load(std::memory_order_acquire)) {
          hook(ElapsedMicros(wait_start));
        }
      }
      RunTimed(task);
      continue;
    }
    if (!waiting &&
        g_on_steal_wait.load(std::memory_order_acquire) != nullptr) {
      waiting = true;
      wait_start = std::chrono::steady_clock::now();
    }
    std::unique_lock<std::mutex> lock(wake_mutex_);
    if (stop_.load()) return;
    wake_cv_.wait_for(lock, std::chrono::milliseconds(1), [this] {
      return stop_.load() || pending_.load(std::memory_order_relaxed) > 0;
    });
    if (stop_.load()) return;
  }
}

void ThreadPool::ParallelFor(std::size_t count,
                             const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  const unsigned self = CurrentLane();
  if (jobs_ == 1 || count == 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }

  struct Batch {
    std::atomic<std::size_t> remaining;
    std::mutex mutex;
    std::condition_variable done_cv;
    std::exception_ptr error;
  };
  auto batch = std::make_shared<Batch>();
  batch->remaining.store(count);

  for (std::size_t i = 0; i < count; ++i) {
    // Spread tasks round-robin over all lanes so every worker has local
    // work before stealing kicks in; `body` outlives the batch because
    // this call blocks until remaining == 0.
    auto task = [batch, &body, i] {
      try {
        body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(batch->mutex);
        if (!batch->error) batch->error = std::current_exception();
      }
      if (batch->remaining.fetch_sub(1) == 1) {
        std::lock_guard<std::mutex> lock(batch->mutex);
        batch->done_cv.notify_all();
      }
    };
    Push((self + i) % jobs_, std::move(task));
  }

  // Help until this batch drains.  Tasks popped here may belong to a
  // different concurrent batch — executing them is exactly what keeps
  // nested ParallelFor calls from deadlocking on a saturated pool.
  while (batch->remaining.load() != 0) {
    if (std::function<void()> task = TryGet(self)) {
      RunTimed(task);
      continue;
    }
    std::unique_lock<std::mutex> lock(batch->mutex);
    batch->done_cv.wait_for(lock, std::chrono::microseconds(200), [&] {
      return batch->remaining.load() == 0;
    });
  }
  if (batch->error) std::rethrow_exception(batch->error);
}

}  // namespace iotsan::util
