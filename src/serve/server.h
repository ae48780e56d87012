// ngsx/serve/server.h
//
// The resident region-query service: one open ConversionSession + one
// Scheduler behind a newline-delimited protocol (serve/protocol.h),
// reachable over a Unix-domain socket or driven in-process (--once mode
// and tests use handle_line directly — same code path, no socket).
//
// Concurrency model: every accepted connection gets a reader thread, and
// each accept joins the threads whose connections have ended; a CONVERT
// blocks its connection thread in Scheduler::submit while the work
// multiplexes onto the shared exec::Pool. Admission control lives in
// the scheduler, so a flood of connections degrades into fast typed
// "backpressure" rejects, not unbounded queueing.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/session.h"
#include "exec/pool.h"
#include "serve/cache.h"
#include "serve/scheduler.h"

namespace ngsx::serve {

struct ServerOptions {
  size_t max_queued = 64;          // scheduler admission bound
  size_t cache_bytes = 0;          // block cache budget; 0 disables caching
  uint64_t records_per_block = 512;
};

class Server {
 public:
  /// The session must outlive the server.
  Server(const core::ConversionSession& session, exec::Pool& pool,
         ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Handles one request line (without trailing newline) and returns the
  /// full response bytes. SHUTDOWN flips shutdown_requested() after
  /// composing its response; QUIT returns an empty string (the transport
  /// closes the connection, nothing is sent).
  std::string handle_line(std::string_view line);

  bool shutdown_requested() const {
    return shutdown_requested_.load(std::memory_order_acquire);
  }

  /// Listens on `socket_path` (an existing socket file is replaced) and
  /// serves until SHUTDOWN arrives or stop() is called. It then shuts down
  /// the read side of every open connection (idle clients cannot keep it
  /// alive), writes the responses still in flight, drains accepted work,
  /// joins connection threads, and removes the socket file before
  /// returning. A request line longer than 64 KiB is answered with
  /// `ERR bad-request` and closes its connection.
  void serve_unix(const std::string& socket_path);

  /// Unblocks a running serve_unix() from another thread or a signal
  /// handler (async-signal-safe: an atomic store and shutdown(2)).
  void stop();

  Scheduler& scheduler() { return *scheduler_; }
  BlockCache* cache() { return cache_.get(); }  // null when caching is off

 private:
  const core::ConversionSession& session_;
  std::unique_ptr<BlockCache> cache_;
  std::unique_ptr<CachedFetcher> fetcher_;
  std::unique_ptr<Scheduler> scheduler_;
  std::atomic<bool> shutdown_requested_{false};
  std::atomic<int> listen_fd_{-1};
  std::mutex open_connections_mu_;
  std::vector<int> open_connections_;  // accepted, not yet closed
};

}  // namespace ngsx::serve
