// ngsx/exec/pool.h
//
// Work-stealing thread pool: the shared execution engine behind the
// dynamic-schedule converters, the parallel BGZF reader and writer, the
// preprocessor and collation (all on the one process_pool()), and the
// NL-means tile scheduler (see docs/EXEC.md).
//
// Every worker owns a Chase–Lev deque; tasks spawned *from* a worker go to
// its own deque (LIFO, cache-hot), tasks submitted from outside go to a
// global injector queue. An idle worker pops its own deque, then the
// injector, then steals from random victims — so skewed workloads
// rebalance automatically instead of leaving cores idle behind a static
// partition (the sequential bottleneck the paper is about, applied to
// scheduling).
//
//   exec::Pool pool(8);
//   exec::TaskGroup g(pool);
//   g.spawn([&] { work(); });     // exceptions propagate to wait()
//   g.wait();
//
//   exec::parallel_for(pool, 0, n, /*grain=*/0, [&](uint64_t b, uint64_t e) {
//     for (uint64_t i = b; i < e; ++i) body(i);
//   });
//
// Shutdown is graceful: the destructor runs every task already submitted
// (including tasks those tasks spawn) before joining the workers. The
// process pool is never destroyed; its idle workers park without polling.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "exec/deque.h"
#include "util/common.h"

namespace ngsx::exec {

class TaskGroup;

/// Number of execution threads to use when the caller asks for auto-detect
/// (`hardware_concurrency`, clamped to >= 1 for restricted environments).
int hardware_threads();

class Pool {
 public:
  /// Spawns `threads` (>= 1) workers; they idle until work arrives.
  explicit Pool(int threads);

  /// Graceful shutdown: drains all submitted tasks, then joins.
  ~Pool();

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  // Fixed before the workers start (they may call size() while the
  // constructor is still spawning the rest).
  int size() const { return n_threads_; }

  /// Fire-and-forget task. The task must not throw (there is no submitter
  /// to propagate to); a throwing detached task terminates the process.
  /// Prefer TaskGroup::spawn, which propagates exceptions to wait().
  void submit(std::function<void()> fn);

  /// Index of the calling thread within its pool, or -1 when the caller is
  /// not a pool worker. Lets clients keep per-worker scratch state (e.g.
  /// one BAMX reader per worker) without locking.
  static int current_worker_index();

  /// True if the calling thread is a worker of *this* pool.
  bool on_worker_thread() const;

  /// Runs one task if any is available to this thread; false otherwise.
  /// Used by workers and by waiters that are themselves workers
  /// (TaskGroup::wait, OrderedWindow::pop): help-first waiting, so nested
  /// spawns and windows cannot deadlock the pool.
  bool try_run_one();

 private:
  friend class TaskGroup;

  struct Task {
    std::function<void()> fn;
    TaskGroup* group = nullptr;  // null for detached submits
  };

  void submit_task(Task* task);
  Task* find_task();
  void run_task(Task* task);
  void worker_main(int index);

  int n_threads_ = 0;
  std::vector<std::unique_ptr<StealDeque<Task*>>> deques_;
  std::deque<Task*> injector_;           // guarded by inj_mu_
  std::mutex inj_mu_;
  std::condition_variable wake_cv_;      // idle workers park here
  std::atomic<bool> stop_{false};
  std::atomic<int64_t> pending_{0};      // submitted, not yet finished
  std::vector<std::thread> workers_;
};

/// The process-wide pool, as htslib shares one hts_tpool: hardware_threads()
/// workers, created on first use and never destroyed. Every parallel path
/// in src/formats and src/core runs on it, its width a cap on tasks in
/// flight rather than a thread count. Fork-aware: a child forked after
/// first use builds its own pool and never touches the parent's.
Pool& process_pool();

/// A wait-able set of tasks on a pool. The first exception thrown by any
/// task in the group is captured and rethrown by wait(); remaining tasks
/// still run (they are assumed independent).
class TaskGroup {
 public:
  explicit TaskGroup(Pool& pool) : pool_(pool) {}

  /// Blocks until all spawned tasks finished. Must not be abandoned with
  /// tasks in flight; the destructor enforces a (non-throwing) wait.
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  void spawn(std::function<void()> fn);

  /// Waits for every spawned task, then rethrows the first captured
  /// exception, if any. When called on a worker thread of the pool it
  /// executes queued tasks while waiting instead of blocking the worker.
  void wait();

  /// True once any task in the group has thrown. Cooperative-cancellation
  /// signal: long-running siblings (parallel_for pumps) poll it to stop
  /// claiming new work once the loop's outcome is already an error.
  bool failed() const { return failed_.load(std::memory_order_relaxed); }

 private:
  friend class Pool;

  void task_done();
  void record_error(std::exception_ptr error);

  Pool& pool_;
  std::atomic<int64_t> outstanding_{0};
  std::atomic<bool> failed_{false};
  std::mutex mu_;
  std::condition_variable cv_;
  std::exception_ptr error_;  // first failure; guarded by mu_
};

/// Dynamic-schedule parallel loop over [begin, end): chunks of `grain`
/// iterations are claimed from a shared counter by up to pool.size()
/// workers, so late chunks land on whichever worker is free — the
/// work-stealing analogue of `schedule(dynamic)`. `grain == 0` picks
/// ~8 chunks per worker. `body(chunk_begin, chunk_end)` must be safe to
/// run concurrently for disjoint chunks. Exceptions propagate.
template <typename Body>
void parallel_for(Pool& pool, uint64_t begin, uint64_t end, uint64_t grain,
                  Body&& body) {
  if (begin >= end) {
    return;
  }
  const uint64_t n = end - begin;
  if (grain == 0) {
    grain = std::max<uint64_t>(
        1, n / (8 * static_cast<uint64_t>(pool.size())));
  }
  const uint64_t n_chunks = (n + grain - 1) / grain;
  if (n_chunks == 1 || pool.size() == 1) {
    for (uint64_t at = begin; at < end; at += grain) {
      body(at, std::min(end, at + grain));
    }
    return;
  }
  std::atomic<uint64_t> next{begin};
  TaskGroup group(pool);
  auto pump = [&next, &body, &group, end, grain] {
    // Stop claiming chunks once a sibling has thrown: the loop's outcome
    // is already that error, and grinding through the remaining range
    // would only delay its propagation (or hit the same fault repeatedly).
    while (!group.failed()) {
      uint64_t at = next.fetch_add(grain, std::memory_order_relaxed);
      if (at >= end) {
        return;
      }
      body(at, std::min(end, at + grain));
    }
  };
  const int n_workers =
      static_cast<int>(std::min<uint64_t>(pool.size(), n_chunks));
  for (int w = 0; w < n_workers; ++w) {
    group.spawn(pump);
  }
  group.wait();
}

}  // namespace ngsx::exec
