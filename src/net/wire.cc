#include "net/wire.h"

#include <cerrno>
#include <cstring>

#ifndef _WIN32
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

namespace ems {
namespace net {

Result<HostPort> ParseHostPort(std::string_view spec) {
  if (spec.empty()) {
    return Status::InvalidArgument("empty host:port spec");
  }
  HostPort out;
  const size_t colon = spec.rfind(':');
  std::string_view port_part;
  if (colon == std::string_view::npos) {
    out.host = "127.0.0.1";
    port_part = spec;
  } else {
    out.host = std::string(spec.substr(0, colon));
    if (out.host.empty()) out.host = "127.0.0.1";
    port_part = spec.substr(colon + 1);
  }
  if (port_part.empty()) {
    return Status::InvalidArgument("missing port in '" + std::string(spec) +
                                   "'");
  }
  long port = 0;
  for (char c : port_part) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("bad port in '" + std::string(spec) +
                                     "'");
    }
    port = port * 10 + (c - '0');
    if (port > 65535) {
      return Status::InvalidArgument("port out of range in '" +
                                     std::string(spec) + "'");
    }
  }
  out.port = static_cast<int>(port);
  return out;
}

bool FdLineReader::ReadLine(std::string* line) {
#ifdef _WIN32
  (void)line;
  error_ = true;
  return false;
#else
  line->clear();
  if (too_large_) return false;
  for (;;) {
    const size_t nl = buffer_.find('\n', scan_);
    const size_t end = nl != std::string::npos ? nl : buffer_.size();
    if (end - pos_ > kMaxLineBytes) {
      too_large_ = true;
      std::string().swap(buffer_);
      pos_ = scan_ = 0;
      return false;
    }
    if (nl != std::string::npos) {
      line->assign(buffer_, pos_, nl - pos_);
      pos_ = scan_ = nl + 1;
      // Compact once the consumed prefix dominates, so a long-lived
      // connection does not grow the buffer without bound.
      if (pos_ > 1 && pos_ * 2 > buffer_.size()) {
        buffer_.erase(0, pos_);
        pos_ = scan_ = 0;
      }
      if (!line->empty() && line->back() == '\r') line->pop_back();
      return true;
    }
    scan_ = buffer_.size();
    if (eof_) {
      // Hand back a final unterminated line exactly once.
      if (pos_ < buffer_.size()) {
        line->assign(buffer_, pos_, buffer_.size() - pos_);
        pos_ = buffer_.size();
        if (!line->empty() && line->back() == '\r') line->pop_back();
        return true;
      }
      return false;
    }
    char chunk[65536];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n > 0) {
      buffer_.append(chunk, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) error_ = true;
    eof_ = true;
  }
#endif
}

Status WriteAll(int fd, std::string_view data) {
#ifdef _WIN32
  (void)fd;
  (void)data;
  return Status::NotImplemented("WriteAll is POSIX-only");
#else
  size_t written = 0;
  while (written < data.size()) {
    ssize_t n = ::send(fd, data.data() + written, data.size() - written,
                       MSG_NOSIGNAL);
    if (n < 0 && errno == ENOTSOCK) {
      n = ::write(fd, data.data() + written, data.size() - written);
    }
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      return Status::IOError(std::string("write failed: ") +
                             std::strerror(errno));
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
#endif
}

Result<int> ConnectTcp(const std::string& host, int port) {
#ifdef _WIN32
  (void)host;
  (void)port;
  return Status::NotImplemented("TCP connect is POSIX-only");
#else
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad IPv4 address '" + host + "'");
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IOError("cannot connect to " + host + ":" +
                           std::to_string(port) + ": " + err);
  }
  // Job lines are small and latency-sensitive; don't batch them.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
#endif
}

Result<int> ConnectUnix(const std::string& path) {
#ifdef _WIN32
  (void)path;
  return Status::NotImplemented("Unix sockets are POSIX-only");
#else
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    return Status::InvalidArgument("socket path too long: " + path);
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IOError("cannot connect to " + path + ": " + err);
  }
  return fd;
#endif
}

Result<int> ConnectEndpoint(const std::string& tcp_spec,
                            const std::string& socket_path) {
  if (tcp_spec.empty() == socket_path.empty()) {
    return Status::InvalidArgument(
        "exactly one of a TCP host:port or a Unix socket path is required");
  }
  if (!socket_path.empty()) return ConnectUnix(socket_path);
  EMS_ASSIGN_OR_RETURN(HostPort hp, ParseHostPort(tcp_spec));
  return ConnectTcp(hp.host, hp.port);
}

}  // namespace net
}  // namespace ems
