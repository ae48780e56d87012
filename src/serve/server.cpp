#include "serve/server.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <list>
#include <thread>

#include "obs/metrics.h"
#include "serve/protocol.h"

namespace ngsx::serve {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

Server::Server(const core::ConversionSession& session, exec::Pool& pool,
               ServerOptions options)
    : session_(session) {
  if (options.cache_bytes > 0) {
    cache_ = std::make_unique<BlockCache>(options.cache_bytes,
                                          options.records_per_block);
    fetcher_ = std::make_unique<CachedFetcher>(session.source(), *cache_);
  }
  SchedulerOptions sched;
  sched.max_queued = options.max_queued;
  sched.fetcher = fetcher_.get();
  scheduler_ = std::make_unique<Scheduler>(session, pool, std::move(sched));
}

Server::~Server() { scheduler_->shutdown(); }

std::string Server::handle_line(std::string_view line) {
  ProtoRequest proto;
  try {
    proto = parse_request(line);
  } catch (const Error& e) {
    // UsageError (bad verb/option) or FormatError (bad integer): either
    // way the request is malformed, not the server.
    return err_response("bad-request", e.what());
  }

  switch (proto.verb) {
    case ProtoRequest::Verb::kPing:
      return ok_response("pong\n");
    case ProtoRequest::Verb::kStats:
      return ok_response(obs::metrics_json() + "\n");
    case ProtoRequest::Verb::kQuit:
      return {};
    case ProtoRequest::Verb::kShutdown:
      shutdown_requested_.store(true, std::memory_order_release);
      return ok_response("bye\n");
    case ProtoRequest::Verb::kConvert:
      break;
  }

  ServeRequest request;
  try {
    request.region = session_.parse(proto.region);
  } catch (const Error& e) {
    return err_response("bad-request", e.what());
  }
  request.format = proto.format;
  request.mode = proto.mode;
  request.filter = proto.filter;
  request.include_header = proto.include_header;
  if (proto.deadline_ms.has_value()) {
    request.deadline = steady_clock::now() + milliseconds(*proto.deadline_ms);
  }

  const ServeResult result = scheduler_->submit(request);
  if (!result.ok) {
    return err_response(reject_code(result.reject), result.error);
  }
  return ok_response(result.payload);
}

namespace {

/// Longest request line (without its newline) a connection may send. A
/// longer one is answered with `ERR bad-request` and its connection closed,
/// which bounds each connection's line buffer.
constexpr size_t kMaxLineBytes = 64 * 1024;

void write_all(int fd, std::string_view bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;  // client went away; nothing to recover
    }
    sent += static_cast<size_t>(n);
  }
}

}  // namespace

void Server::serve_unix(const std::string& socket_path) {
  NGSX_CHECK_MSG(socket_path.size() < sizeof(sockaddr_un{}.sun_path),
                 "socket path too long for sockaddr_un");
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  NGSX_CHECK_MSG(fd >= 0, "socket() failed");
  ::unlink(socket_path.c_str());

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    ::close(fd);
    throw IoError("cannot listen on '" + socket_path +
                  "': " + std::strerror(errno));
  }
  listen_fd_.store(fd, std::memory_order_release);

  struct Connection {
    std::thread thread;
    std::atomic<bool> done{false};
  };
  std::list<Connection> connections;
  while (!shutdown_requested()) {
    const int conn = ::accept(fd, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;  // listener shut down (stop()) or failed: exit the loop
    }
    {
      std::lock_guard<std::mutex> lock(open_connections_mu_);
      open_connections_.push_back(conn);
    }
    // Join the connections that have ended, so an exited thread's stack
    // is not held for the daemon's lifetime.
    connections.remove_if([](Connection& c) {
      if (!c.done.load(std::memory_order_acquire)) {
        return false;
      }
      c.thread.join();
      return true;
    });
    Connection& connection = connections.emplace_back();
    connection.thread = std::thread([this, conn, &done = connection.done] {
      static obs::Counter& connection_counter =
          obs::counter("serve.connections");
      connection_counter.add(1);
      std::string buffer;  // received bytes not yet framed into a line
      char chunk[4096];
      bool open = true;
      while (open) {
        const ssize_t n = ::recv(conn, chunk, sizeof(chunk), 0);
        if (n <= 0) {
          if (n < 0 && errno == EINTR) {
            continue;
          }
          break;  // peer closed, or serve_unix shut our read side down
        }
        // Only the new bytes can hold a newline; the rest was scanned.
        size_t nl = buffer.size();
        buffer.append(chunk, static_cast<size_t>(n));
        size_t start = 0;
        while (open && (nl = buffer.find('\n', nl)) != std::string::npos &&
               nl - start <= kMaxLineBytes) {
          const std::string response =
              handle_line(std::string_view(buffer).substr(start, nl - start));
          start = ++nl;
          if (response.empty()) {
            open = false;  // QUIT: close this connection silently
            break;
          }
          write_all(conn, response);
          if (shutdown_requested()) {
            open = false;  // SHUTDOWN was answered; now stop the listener
            stop();
          }
        }
        buffer.erase(0, start);
        // Still open with a newline found: that line was over the cap.
        if (open && (nl != std::string::npos ||
                     buffer.size() > kMaxLineBytes)) {
          write_all(conn, err_response("bad-request",
                                       "request line longer than " +
                                           std::to_string(kMaxLineBytes) +
                                           " bytes"));
          open = false;
        }
      }
      {
        // Deregister before close so serve_unix never shuts down a reused
        // descriptor number.
        std::lock_guard<std::mutex> lock(open_connections_mu_);
        std::erase(open_connections_, conn);
      }
      ::close(conn);
      done.store(true, std::memory_order_release);
    });
  }

  ::close(fd);
  listen_fd_.store(-1, std::memory_order_release);
  {
    // Wake every connection thread blocked in recv() (an idle client must
    // not hold shutdown hostage). Only the read side closes: a response in
    // flight is still written, then its thread sees end-of-stream.
    std::lock_guard<std::mutex> lock(open_connections_mu_);
    for (int conn : open_connections_) {
      ::shutdown(conn, SHUT_RD);
    }
  }
  for (Connection& c : connections) {
    c.thread.join();
  }
  // Drain in-flight work before the caller tears anything down.
  scheduler_->shutdown();
  ::unlink(socket_path.c_str());
}

void Server::stop() {
  shutdown_requested_.store(true, std::memory_order_release);
  const int fd = listen_fd_.load(std::memory_order_acquire);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);  // wakes the blocked accept()
  }
}

}  // namespace ngsx::serve
