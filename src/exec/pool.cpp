#include "exec/pool.h"

#include <pthread.h>

#include <algorithm>
#include <cstdio>
#include <random>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace ngsx::exec {

namespace {

// Worker identity of the calling thread: which pool (if any) and which
// index within it. Used to route spawns to the local deque and to let
// TaskGroup::wait() help-execute instead of blocking a worker.
thread_local Pool* tl_pool = nullptr;
thread_local int tl_index = -1;

// The process pool. The fork handler clears it in a child, whose copy of
// the parent's pool has no workers.
std::atomic<Pool*> g_process_pool{nullptr};
[[maybe_unused]] const int g_fork_handler = pthread_atfork(
    nullptr, nullptr,
    [] { g_process_pool.store(nullptr, std::memory_order_relaxed); });

// Pool observability (docs/OBSERVABILITY.md, layer "exec"). Handles are
// registered lazily on the first armed hook; every hook is gated on
// obs::metrics_enabled() so the disarmed cost is one relaxed load.
struct PoolMetrics {
  obs::Counter& tasks = obs::counter("exec.pool.tasks");
  obs::Counter& steals = obs::counter("exec.pool.steals");
  obs::Counter& parks = obs::counter("exec.pool.parks");
  obs::Gauge& queue_depth = obs::gauge("exec.pool.queue_depth");
  obs::Histogram& task_us = obs::histogram("exec.pool.task_us");
};

PoolMetrics& pool_metrics() {
  static PoolMetrics m;
  return m;
}

}  // namespace

int hardware_threads() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

Pool& process_pool() {
  Pool* pool = g_process_pool.load(std::memory_order_acquire);
  if (pool == nullptr) {
    // Never destroyed: at exit its workers are parked, holding nothing. A
    // thread that loses the race to create it joins its own copy at once.
    auto fresh = std::make_unique<Pool>(hardware_threads());
    if (g_process_pool.compare_exchange_strong(pool, fresh.get(),
                                               std::memory_order_acq_rel)) {
      pool = fresh.release();
    }
  }
  return *pool;
}

// ----------------------------------------------------------------- Pool

Pool::Pool(int threads) : n_threads_(threads) {
  NGSX_CHECK_MSG(threads >= 1, "pool needs at least one worker");
  deques_.reserve(static_cast<size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    deques_.push_back(std::make_unique<StealDeque<Task*>>());
  }
  workers_.reserve(static_cast<size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_main(i); });
  }
}

Pool::~Pool() {
  stop_.store(true, std::memory_order_seq_cst);
  { std::lock_guard<std::mutex> lock(inj_mu_); }
  wake_cv_.notify_all();
  for (auto& worker : workers_) {
    worker.join();
  }
  // Graceful shutdown drains everything; nothing should remain.
  NGSX_CHECK_MSG(pending_.load() == 0, "pool destroyed with tasks pending");
}

int Pool::current_worker_index() { return tl_index; }

bool Pool::on_worker_thread() const { return tl_pool == this; }

void Pool::submit(std::function<void()> fn) {
  submit_task(new Task{std::move(fn), nullptr});
}

void Pool::submit_task(Task* task) {
  pending_.fetch_add(1, std::memory_order_relaxed);
  if (obs::metrics_enabled()) {
    pool_metrics().queue_depth.add(1);
  }
  if (tl_pool == this) {
    // Spawned from a worker: LIFO push onto its own deque; thieves take
    // the oldest end.
    deques_[static_cast<size_t>(tl_index)]->push(task);
  }
  {
    // Taken on every submit, so a worker that found no work cannot miss
    // this wakeup between its scan and its park (worker_main).
    std::lock_guard<std::mutex> lock(inj_mu_);
    if (tl_pool != this) {
      injector_.push_back(task);
    }
  }
  wake_cv_.notify_one();
}

Pool::Task* Pool::find_task() {
  Task* task = nullptr;
  // 1. Own deque (only when called on a worker thread).
  if (tl_pool == this &&
      deques_[static_cast<size_t>(tl_index)]->pop(task)) {
    return task;
  }
  // 2. Global injector.
  {
    std::lock_guard<std::mutex> lock(inj_mu_);
    if (!injector_.empty()) {
      task = injector_.front();
      injector_.pop_front();
      return task;
    }
  }
  // 3. Steal: one randomized sweep over the other workers' deques.
  thread_local std::minstd_rand rng(static_cast<unsigned>(
      std::hash<std::thread::id>{}(std::this_thread::get_id())));
  const int n = size();
  const int self = tl_pool == this ? tl_index : -1;
  const int start = static_cast<int>(rng() % static_cast<unsigned>(n));
  for (int k = 0; k < n; ++k) {
    int victim = (start + k) % n;
    if (victim == self) {
      continue;
    }
    if (deques_[static_cast<size_t>(victim)]->steal(task)) {
      if (obs::metrics_enabled()) {
        pool_metrics().steals.add(1);
      }
      return task;
    }
  }
  return nullptr;
}

bool Pool::try_run_one() {
  Task* task = find_task();
  if (task == nullptr) {
    return false;
  }
  run_task(task);
  return true;
}

void Pool::run_task(Task* task) {
  uint64_t start_ns = 0;
  const bool recording = obs::metrics_enabled();
  if (recording) {
    PoolMetrics& m = pool_metrics();
    m.tasks.add(1);
    m.queue_depth.sub(1);
    start_ns = obs::detail::monotonic_ns();
  }
  if (task->group != nullptr) {
    try {
      task->fn();
    } catch (...) {
      task->group->record_error(std::current_exception());
    }
    task->group->task_done();
  } else {
    try {
      task->fn();
    } catch (...) {
      // No submitter to propagate to; mirror std::thread semantics.
      std::fprintf(stderr,
                   "ngsx::exec: unhandled exception in detached task\n");
      std::terminate();
    }
  }
  delete task;
  if (pending_.fetch_sub(1, std::memory_order_seq_cst) == 1 &&
      stop_.load(std::memory_order_seq_cst)) {
    // The last task of a stopping pool: parked workers may now exit.
    { std::lock_guard<std::mutex> lock(inj_mu_); }
    wake_cv_.notify_all();
  }
  if (recording) {
    pool_metrics().task_us.record(
        (obs::detail::monotonic_ns() - start_ns) / 1000);
  }
}

void Pool::worker_main(int index) {
  tl_pool = this;
  tl_index = index;
  obs::set_thread_name("exec.worker");
  while (true) {
    if (try_run_one()) {
      continue;
    }
    // Park until woken, without polling. Every submit takes inj_mu_
    // after publishing its task, so a task that arrived since the scan is
    // either seen here, under the lock, or wakes us.
    std::unique_lock<std::mutex> lock(inj_mu_);
    if (!injector_.empty() ||
        std::any_of(deques_.begin(), deques_.end(),
                    [](const auto& d) { return d->size_estimate() > 0; })) {
      continue;  // raced with a submit; rescan
    }
    if (stop_.load(std::memory_order_seq_cst) &&
        pending_.load(std::memory_order_seq_cst) == 0) {
      return;
    }
    if (obs::metrics_enabled()) {
      pool_metrics().parks.add(1);
    }
    wake_cv_.wait(lock);
  }
}

// ------------------------------------------------------------ TaskGroup

TaskGroup::~TaskGroup() {
  // Spawned tasks capture `this`; they must finish before we go away.
  // wait() was normally already called; errors surface there, not here.
  if (outstanding_.load(std::memory_order_acquire) != 0) {
    try {
      wait();
    } catch (...) {
      // Destructor must not throw; wait() callers get the error instead.
    }
  }
}

void TaskGroup::spawn(std::function<void()> fn) {
  outstanding_.fetch_add(1, std::memory_order_relaxed);
  pool_.submit_task(new Pool::Task{std::move(fn), this});
}

void TaskGroup::task_done() {
  // Decrement and notify under the lock: a waiter that observes zero must
  // not be able to return (and destroy this group) before the notify has
  // happened — wait()'s trailing mu_ acquisition orders it after us.
  std::lock_guard<std::mutex> lock(mu_);
  if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    cv_.notify_all();
  }
}

void TaskGroup::record_error(std::exception_ptr error) {
  failed_.store(true, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  if (!error_) {
    error_ = std::move(error);
  }
}

void TaskGroup::wait() {
  if (pool_.on_worker_thread()) {
    // Help-first: run queued tasks (any task, not just ours) while our
    // spawns are in flight, so nested groups never starve the pool.
    while (outstanding_.load(std::memory_order_acquire) != 0) {
      if (!pool_.try_run_one()) {
        std::this_thread::yield();
      }
    }
  } else {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] {
      return outstanding_.load(std::memory_order_acquire) == 0;
    });
  }
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(mu_);
    error = error_;
    error_ = nullptr;
  }
  if (error) {
    std::rethrow_exception(error);
  }
}

}  // namespace ngsx::exec
