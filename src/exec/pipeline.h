// ngsx/exec/pipeline.h
//
// Ordered parallel work on exec::Pool (docs/EXEC.md): each item takes a
// sequence ticket, runs on the pool as one short task, and comes back in
// ticket order. Every ordered parallel path in ngsx — both BGZF
// directions, the preprocessor, collation's record parse and the dynamic
// converter schedule — is one of these.
//
//   OrderedWindow<Out> w(pool, window, width);
//   w.push([..] { return work(); });   // when !w.full()
//   Out out = w.pop();                 // oldest ticket
//     Caller-driven: at most `window` tickets in flight and `width` of
//     the window's tasks on the pool. With a `sink` (the committing form)
//     nobody pops: whichever thread finishes the oldest ticket hands the
//     finished results to the sink in order, one committer at a time, and
//     the caller only waits for room and for the end.
//
//   ordered_pipeline(pool, source, transform, sink, opt)
//     A loop over a committing window: the calling thread runs `source`
//     whenever there is room, so its serial work is the source alone.
//
// No task blocks: a waiting caller runs the oldest ticket itself if no
// task has started it, and a caller that is a pool worker runs other pool
// tasks while it waits, so windows nest on one pool without deadlock.
// Sinks may wait only on other windows and on threads outside the pool.
// A task's or sink's exception surfaces at its ticket, after every
// earlier result, and nothing later is committed. Leaving a window early
// drops the tickets not started, waits for the running ones and drops
// every result.

#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "exec/pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/common.h"

namespace ngsx::exec {

// Pipeline observability (docs/OBSERVABILITY.md, layer "exec"). Shared by
// every window; hooks are gated on obs::metrics_enabled() so the disarmed
// cost is one relaxed load.
struct PipelineMetrics {
  obs::Counter& tickets = obs::counter("exec.pipeline.tickets");
  obs::Histogram& transform_us = obs::histogram("exec.pipeline.transform_us");
  obs::Histogram& commit_wait_us =
      obs::histogram("exec.pipeline.commit_wait_us");
  obs::Gauge& reorder_depth = obs::gauge("exec.pipeline.reorder_depth");
};

inline PipelineMetrics& pipeline_metrics() {
  static PipelineMetrics m;
  return m;
}

/// Caller-driven ordered window (see file comment). One thread at a time
/// pushes and pops (or waits); tasks run on `pool`.
template <typename Out>
class OrderedWindow {
 public:
  using Sink = std::function<void(Out&&, uint64_t)>;

  /// At most `window` tickets in flight and `width` tasks on the pool.
  /// With a `sink`, results are committed to it instead of popped.
  OrderedWindow(Pool& pool, size_t window, int width, Sink sink = nullptr)
      : pool_(pool), window_(std::max<size_t>(window, 1)),
        width_(std::max(width, 1)), sink_(std::move(sink)) {}

  /// Drops the window's work (discard()).
  ~OrderedWindow() { discard(); }

  OrderedWindow(const OrderedWindow&) = delete;
  OrderedWindow& operator=(const OrderedWindow&) = delete;

  /// Tickets in flight: issued, and not yet popped or committed.
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return slots_.size();
  }
  bool full() const { return size() >= window_; }
  bool empty() const { return size() == 0; }

  /// Issues `fn` as the next ticket (requires !full()). A pool task starts
  /// it if fewer than `width` of this window's tasks are on the pool, else
  /// the next of them to finish does.
  void push(std::function<Out()> fn) {
    bool spawn = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      NGSX_CHECK_MSG(slots_.size() < window_, "push on a full OrderedWindow");
      slots_.push_back(Slot{std::move(fn), std::nullopt, nullptr});
      if (runners_ < width_) {
        ++runners_;
        spawn = true;
      }
    }
    if (spawn) {
      pool_.submit([this] { run(); });
    }
  }

  /// Waits for the oldest ticket and returns its result, or rethrows the
  /// exception its task threw.
  Out pop() {
    NGSX_CHECK_MSG(!sink_, "pop on a committing OrderedWindow");
    Slot slot;
    {
      std::unique_lock<std::mutex> lock(mu_);
      NGSX_CHECK_MSG(!slots_.empty(), "pop on an empty OrderedWindow");
      wait(lock, [this] { return slots_.front().done; });
      slot = take_front();
    }
    if (slot.error != nullptr) {
      std::rethrow_exception(slot.error);
    }
    return std::move(*slot.out);
  }

  /// Committing form: waits until a ticket can be pushed, then rethrows
  /// the first task or sink error, if any.
  void wait_for_room() {
    wait_or_rethrow([this] { return slots_.size() < window_; });
  }

  /// Committing form: waits until every ticket is committed, then rethrows
  /// the first task or sink error, if any.
  void finish() {
    wait_or_rethrow(
        [this] { return slots_.empty() && !committing_ && runners_ == 0; });
  }

  /// Drops the tickets not yet started, waits for the running ones and
  /// for a commit in progress, and drops every result and error: the
  /// window is empty and reusable afterwards.
  void discard() {
    int64_t finished = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      next_start_ = base_ + slots_.size();
      wait(lock, [this] { return runners_ == 0 && !committing_; });
      for (const Slot& slot : slots_) {
        finished += slot.done ? 1 : 0;
      }
      base_ += slots_.size();
      slots_.clear();
      error_ = nullptr;
    }
    if (finished != 0 && obs::metrics_enabled()) {
      pipeline_metrics().reorder_depth.sub(finished);
    }
  }

 private:
  struct Slot {
    std::function<Out()> fn;  // moved out when the ticket starts
    std::optional<Out> out;
    std::exception_ptr error;
    bool done = false;
  };

  /// Starts the first ticket not yet started and runs it with `lock`
  /// released. Returns with `lock` held and the outcome stored, after
  /// committing what is ready (committing form).
  void run_next(std::unique_lock<std::mutex>& lock) {
    const uint64_t ticket = next_start_++;
    std::function<Out()> fn = std::move(slots_[ticket - base_].fn);
    lock.unlock();
    const bool recording = obs::metrics_enabled();
    const uint64_t start_ns = recording ? obs::detail::monotonic_ns() : 0;
    std::optional<Out> out;
    std::exception_ptr error;
    try {
      obs::Span span("exec", "pipeline.transform");
      out.emplace(fn());
    } catch (...) {
      error = std::current_exception();
    }
    // Published outside the catch block: the handler's own reference to
    // the exception is released first, so everything this thread did to
    // the exception object happens-before the caller rethrowing it.
    if (recording) {
      PipelineMetrics& m = pipeline_metrics();
      m.tickets.add(1);
      m.transform_us.record((obs::detail::monotonic_ns() - start_ns) / 1000);
      m.reorder_depth.add(1);
    }
    lock.lock();
    Slot& slot = slots_[ticket - base_];
    slot.out = std::move(out);
    slot.error = std::move(error);
    slot.done = true;
    if (ticket == base_) {
      // Notified under the lock: once the caller sees its condition it
      // may destroy the window, so nothing may touch it after the lock is
      // released (run() keeps it alive through runners_).
      cv_.notify_one();
      if (sink_ && !committing_) {
        commit(lock);
      }
    }
  }

  /// Committing form: hands every finished result at the front to the
  /// sink in ticket order, with `lock` released around each call. After
  /// the first error nothing more is committed.
  void commit(std::unique_lock<std::mutex>& lock) {
    committing_ = true;
    while (!slots_.empty() && slots_.front().done) {
      const uint64_t ticket = base_;
      Slot slot = take_front();
      std::exception_ptr error = std::move(slot.error);
      if (error == nullptr && error_ == nullptr) {
        lock.unlock();
        try {
          obs::Span span("exec", "pipeline.commit");
          sink_(std::move(*slot.out), ticket);
        } catch (...) {
          error = std::current_exception();
        }
        lock.lock();
      }
      if (error != nullptr && error_ == nullptr) {
        error_ = std::move(error);
      }
    }
    committing_ = false;
    cv_.notify_one();
  }

  /// Pool task: runs the first ticket not yet started, then hands its
  /// place to a fresh task while tickets remain, so at most `width_` of
  /// this window's tasks are ever on the pool and none of them blocks.
  void run() {
    std::unique_lock<std::mutex> lock(mu_);
    if (next_start_ < base_ + slots_.size()) {
      run_next(lock);
    }
    if (next_start_ < base_ + slots_.size()) {
      lock.unlock();
      pool_.submit([this] { run(); });  // still counted: the window lives
      return;
    }
    --runners_;
    cv_.notify_one();
  }

  /// Blocks until `ready()` holds. Meanwhile the caller runs the oldest
  /// ticket itself if no task has started it yet, rather than wait behind
  /// other pool work; on a worker of the pool it also runs other pool
  /// tasks instead of blocking the worker.
  template <typename Ready>
  void wait(std::unique_lock<std::mutex>& lock, Ready ready) {
    const bool recording = obs::metrics_enabled();
    const uint64_t start_ns = recording ? obs::detail::monotonic_ns() : 0;
    const bool worker = pool_.on_worker_thread();
    while (!ready()) {
      if (next_start_ == base_ && !slots_.empty()) {
        run_next(lock);
      } else if (!worker) {
        cv_.wait(lock);
      } else {
        lock.unlock();
        if (!pool_.try_run_one()) {
          std::this_thread::yield();
        }
        lock.lock();
      }
    }
    if (recording) {
      // Commit stall: how long the caller waited on the window.
      pipeline_metrics().commit_wait_us.record(
          (obs::detail::monotonic_ns() - start_ns) / 1000);
    }
  }

  /// Removes the oldest ticket, which has finished; `mu_` is held.
  Slot take_front() {
    Slot slot = std::move(slots_.front());
    slots_.pop_front();
    ++base_;
    if (obs::metrics_enabled()) {
      pipeline_metrics().reorder_depth.sub(1);
    }
    return slot;
  }

  /// Committing form: waits until `done()` holds, then rethrows the first
  /// task or sink error, if any, after dropping the remaining work. error_
  /// stays set until discard() has waited out the committer, so no later
  /// result reaches the sink.
  template <typename Done>
  void wait_or_rethrow(Done done) {
    std::unique_lock<std::mutex> lock(mu_);
    wait(lock, [&] { return error_ != nullptr || done(); });
    if (error_ == nullptr) {
      return;
    }
    std::exception_ptr error = error_;
    lock.unlock();
    discard();
    std::rethrow_exception(error);
  }

  Pool& pool_;
  const size_t window_;
  const int width_;
  const Sink sink_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Slot> slots_;    // tickets base_, base_ + 1, ...; guarded by mu_
  uint64_t base_ = 0;         // ticket of slots_.front(); guarded by mu_
  uint64_t next_start_ = 0;   // first ticket not yet started; guarded by mu_
  int runners_ = 0;           // run() tasks on the pool; guarded by mu_
  bool committing_ = false;   // a thread is in commit(); guarded by mu_
  std::exception_ptr error_;  // first committing-form error; guarded by mu_
};

struct PipelineOptions {
  /// Transform tasks on the pool at once; 0 means pool.size().
  int workers = 0;
  /// Max tickets in flight (issued, not yet committed); 0 means
  /// 2*workers + 4. This bounds reorder memory when one slow item holds
  /// up the ordered commit.
  size_t window = 0;
};

template <typename In, typename Out>
void ordered_pipeline(Pool& pool,
                      const std::function<bool(In&)>& source,
                      const std::function<Out(In&&, uint64_t)>& transform,
                      const std::function<void(Out&&, uint64_t)>& sink,
                      PipelineOptions opt = {}) {
  const int workers =
      opt.workers > 0 ? std::min(opt.workers, pool.size()) : pool.size();
  OrderedWindow<Out> window(
      pool, opt.window > 0 ? opt.window : 2 * static_cast<size_t>(workers) + 4,
      workers, sink);
  for (uint64_t ticket = 0;; ++ticket) {
    window.wait_for_room();
    In item;
    if (!source(item)) {
      break;
    }
    window.push([&transform, ticket, item = std::move(item)]() mutable {
      return transform(std::move(item), ticket);
    });
  }
  window.finish();
}

}  // namespace ngsx::exec
