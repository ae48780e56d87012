// A blocking client connection to ngsx_serve's Unix socket, speaking the
// newline protocol of docs/SERVING.md ("OK <n>\n<payload>" or "ERR ...").

#pragma once

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string>

namespace perfbench {

class Connection {
 public:
  explicit Connection(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (fd_ < 0 || path.size() >= sizeof(addr.sun_path)) {
      return;
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~Connection() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool ok() const { return fd_ >= 0; }

  /// Sends `line` + '\n' and reads one response. Returns false on a
  /// transport failure; `is_ok` tells an "OK" reply from an "ERR" one.
  bool round_trip(const std::string& line, bool& is_ok, std::string& payload) {
    const std::string wire = line + "\n";
    size_t sent = 0;
    while (sent < wire.size()) {
      const ssize_t n = ::send(fd_, wire.data() + sent, wire.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n <= 0) {
        return false;
      }
      sent += static_cast<size_t>(n);
    }
    std::string status;
    if (!read_line(status)) {
      return false;
    }
    is_ok = status.rfind("OK ", 0) == 0;
    payload.clear();
    if (!is_ok) {
      return true;
    }
    const size_t want = std::stoull(status.substr(3));
    while (payload.size() < want) {
      if (pos_ == buf_.size() && !fill()) {
        return false;
      }
      const size_t take = std::min(want - payload.size(), buf_.size() - pos_);
      payload.append(buf_, pos_, take);
      pos_ += take;
    }
    return true;
  }

 private:
  bool fill() {
    buf_.resize(1 << 16);
    for (;;) {
      const ssize_t n = ::recv(fd_, buf_.data(), buf_.size(), 0);
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n <= 0) {
        buf_.clear();
        pos_ = 0;
        return false;
      }
      buf_.resize(static_cast<size_t>(n));
      pos_ = 0;
      return true;
    }
  }
  bool read_line(std::string& line) {
    line.clear();
    for (;;) {
      if (pos_ == buf_.size() && !fill()) {
        return false;
      }
      const size_t nl = buf_.find('\n', pos_);
      if (nl != std::string::npos) {
        line.append(buf_, pos_, nl - pos_);
        pos_ = nl + 1;
        return true;
      }
      line.append(buf_, pos_, std::string::npos);
      pos_ = buf_.size();
    }
  }

  int fd_ = -1;
  std::string buf_;
  size_t pos_ = 0;
};

}  // namespace perfbench
