// A small work-stealing thread pool for the parallel search layers.
//
// Design goals, in order:
//   * Nestable fork/join — Sanitizer::Check fans related sets across the
//     pool (a lone set's checker fans its root (event × failure)
//     branches instead), and attribution fans configurations one level
//     above, over the *same* pool.  ParallelFor may therefore be called
//     from inside a pool task; the caller always helps execute tasks
//     while it waits, so composing the layers over one pool never
//     oversubscribes or deadlocks.
//   * Determinism support, not determinism itself — the pool makes no
//     ordering promises.  Callers that need deterministic output (the
//     checker does) index their results by task id and merge in task
//     order after the join.
//   * Zero dependencies — util sits below telemetry, so the pool exposes
//     plain Stats that callers feed into telemetry themselves.  Timing
//     distributions cross the layer boundary the other way: telemetry
//     installs plain function pointers via SetPoolTimingHooks and the
//     pool calls them with microsecond durations, never including a
//     telemetry header.
//
// Topology: one deque ("lane") per worker plus lane 0 for the owning
// thread.  An owner pushes and pops its own lane LIFO (good locality for
// nested joins); idle workers steal FIFO from the other end.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace iotsan::util {

/// Resolves a user-facing `--jobs` value: 0 = one lane per CPU in the
/// calling thread's affinity mask (std::thread::hardware_concurrency()
/// where that cannot be read), negative or 1 = serial, otherwise the
/// value itself.
unsigned ResolveJobs(int jobs);

/// Observer for pool timing distributions, called with a duration in
/// microseconds.  Must be safe to call from any pool thread.
using PoolTimingHook = void (*)(std::uint64_t micros);

/// Installs process-wide timing hooks: `on_task_run` fires once per
/// executed task body, `on_steal_wait` once per idle gap a worker spends
/// between failing to get a task and obtaining the next one.  Either may
/// be nullptr to disable that measurement.  Hooks are read with acquire
/// loads on the hot path; install/uninstall only between runs (the same
/// contract as telemetry::SetActive, which is the expected caller).
void SetPoolTimingHooks(PoolTimingHook on_task_run,
                        PoolTimingHook on_steal_wait);

class ThreadPool {
 public:
  /// Creates `jobs` lanes: lane 0 belongs to the constructing/calling
  /// thread, lanes 1..jobs-1 get a dedicated worker thread each.
  /// `jobs` is clamped to >= 1 (a 1-lane pool runs everything inline).
  explicit ThreadPool(unsigned jobs);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of lanes (worker threads + the caller's lane).
  unsigned jobs() const { return jobs_; }

  /// Lane index of the calling thread: its own lane for pool workers,
  /// 0 for every external thread (including the owner).
  unsigned CurrentLane() const;

  /// True while the calling thread runs a task body of any pool — a
  /// worker's, or one a ParallelFor caller helps with while it waits.
  /// Some batch's join may then depend on this thread returning, so it
  /// must not block on work that itself waits for pool tasks.
  static bool InTask();

  struct Stats {
    std::uint64_t tasks_run = 0;     // bodies executed
    std::uint64_t tasks_stolen = 0;  // executed on a lane != push lane
  };
  Stats stats() const;

  /// Runs `body(0..count-1)`, each index exactly once, potentially in
  /// parallel, and returns when all have completed.  The calling thread
  /// participates (and may execute tasks of unrelated concurrent
  /// batches while it waits — that is what makes nesting safe).  The
  /// first exception thrown by any body is rethrown here after the
  /// join; remaining bodies still run.
  void ParallelFor(std::size_t count,
                   const std::function<void(std::size_t)>& body);

 private:
  struct Lane {
    std::mutex mutex;
    std::deque<std::function<void()>> tasks;
  };

  void WorkerMain(unsigned lane);
  void Push(unsigned lane, std::function<void()> task);
  /// Pops from the calling lane (LIFO) or steals from another (FIFO).
  std::function<void()> TryGet(unsigned lane);

  unsigned jobs_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::thread> threads_;
  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> pending_{0};
  std::atomic<std::uint64_t> tasks_run_{0};
  std::atomic<std::uint64_t> tasks_stolen_{0};
};

}  // namespace iotsan::util
