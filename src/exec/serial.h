// ngsx/exec/serial.h
//
// SerialStage: the backpressure primitive for *stateful* pipeline stages.
//
// ordered_pipeline parallelizes pure transforms; a stage that owns mutable
// state (an external-merge spiller compressing run files, an index builder
// appending to a single output) must instead run its work on exactly one
// thread, with producers throttled when the stage falls behind. SerialStage
// is that shape factored out: one worker thread draining a *bounded*
// channel of jobs. submit() blocks while the queue is full — the queue
// capacity is the stage's whole memory bound, because each queued job owns
// its inputs — and the jobs execute strictly in submission order, so a
// stateful stage keeps its determinism while the producer overlaps with it.
//
// Error contract (the Pipeline<> pattern): the first job that throws
// poisons the stage — the queue is closed, already-queued jobs are
// discarded, and the captured exception is rethrown from the next submit()
// or from finish(). finish() drains every accepted job before returning,
// so "finish() returned normally" means every submitted job ran to
// completion. The destructor finishes quietly (errors were already
// observable via submit()/finish()).

#pragma once

#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>

#include "exec/channel.h"
#include "util/common.h"

namespace ngsx::exec {

class SerialStage {
 public:
  /// `capacity` bounds the queued-but-not-started jobs; submit() blocks at
  /// the bound. One more job (the one executing) is in flight on top.
  explicit SerialStage(size_t capacity) : jobs_(capacity) {
    worker_ = std::thread([this] { run(); });
  }

  ~SerialStage() {
    try {
      finish();
    } catch (...) {
      // First error was already rethrown (or available) via submit()/
      // finish(); destructors must not throw.
    }
  }

  SerialStage(const SerialStage&) = delete;
  SerialStage& operator=(const SerialStage&) = delete;

  /// Enqueues one job, blocking while the queue is full. If the stage has
  /// failed, rethrows its first error; submitting after finish() throws
  /// UsageError.
  void submit(std::function<void()> job) {
    if (jobs_.push(std::move(job))) {
      return;
    }
    rethrow_failure();
    throw UsageError("submit on a finished SerialStage");
  }

  /// Closes the queue, runs every already-accepted job, joins the worker,
  /// and rethrows the stage's first error, if any. Idempotent.
  void finish() {
    jobs_.close();
    if (worker_.joinable()) {
      worker_.join();
    }
    rethrow_failure();
  }

 private:
  void run() {
    while (auto job = jobs_.pop()) {
      {
        std::lock_guard<std::mutex> lock(error_mu_);
        if (error_ != nullptr) {
          continue;  // poisoned: drain and discard the remaining jobs
        }
      }
      std::exception_ptr error;
      try {
        (*job)();
      } catch (...) {
        error = std::current_exception();
      }
      // Publish outside the catch block (as Pipeline<> does): the handler's
      // own reference to the in-flight exception is released when the
      // catch block ends, so it must end before the mutex hand-off. Then
      // everything this thread did to the exception object happens-before
      // the producer rethrowing it, and the last reference is never
      // dropped here while the producer reads what().
      if (error) {
        {
          std::lock_guard<std::mutex> lock(error_mu_);
          error_ = std::move(error);
        }
        // Unblock producers: their next submit() fails and rethrows.
        jobs_.close();
      }
    }
  }

  void rethrow_failure() {
    std::lock_guard<std::mutex> lock(error_mu_);
    if (error_ != nullptr) {
      std::exception_ptr error = error_;
      error_ = nullptr;
      std::rethrow_exception(error);
    }
  }

  Channel<std::function<void()>> jobs_;
  std::thread worker_;
  std::mutex error_mu_;
  std::exception_ptr error_;
};

}  // namespace ngsx::exec
