#include "net/tcp_server.h"

#ifndef _WIN32
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

#include <cerrno>
#include <condition_variable>
#include <cstring>

#include "net/wire.h"
#include "obs/context.h"
#include "util/log.h"

namespace ems {
namespace net {

namespace {

// One served input's response side, shared by the line loop and every
// emit it hands out, so a late emit never outlives it.
struct LineSink {
  int fd = -1;
  std::mutex mu;  // one whole response line at a time, and the count
  std::condition_variable answered;
  size_t pending = 0;  // lines handed out and not answered yet
  bool dead = false;   // a write failed: drop further responses
};

}  // namespace

LinesServed ServeLines(
    int in_fd, int out_fd,
    const std::function<void(const std::string&, EmitFn)>& handle,
    ObsContext* obs) {
  LinesServed served;
#ifndef _WIN32
  auto sink = std::make_shared<LineSink>();
  sink->fd = out_fd;
  FdLineReader reader(in_fd);
  std::string line;
  while (reader.ReadLine(&line)) {
    if (line.empty()) continue;
    ++served.lines;
    ObsIncrement(obs, "net.lines_read");
    {
      std::lock_guard<std::mutex> lock(sink->mu);
      ++sink->pending;
    }
    handle(line, [sink, obs](const std::string& response) {
      std::lock_guard<std::mutex> lock(sink->mu);
      if (!sink->dead && !WriteAll(sink->fd, response + "\n").ok()) {
        // The peer is gone; jobs already admitted still run to
        // completion, their responses just have nowhere to go.
        sink->dead = true;
        ObsIncrement(obs, "net.write_errors");
      }
      --sink->pending;
      sink->answered.notify_all();
    });
  }
  served.too_large = reader.too_large();
  std::unique_lock<std::mutex> lock(sink->mu);
  if (served.too_large && !sink->dead) {
    // The line was never parsed, so the answer carries no id; reading
    // stops here.
    ObsIncrement(obs, "net.lines_too_large");
    (void)WriteAll(out_fd, "{\"status\":\"too_large\",\"error\":\"line longer "
                           "than " + std::to_string(kMaxLineBytes) +
                               " bytes\"}\n");
  }
  // EOF, drain half-close or a refused line: every handled line is
  // answered before the caller may close the descriptors.
  sink->answered.wait(lock, [&sink] { return sink->pending == 0; });
#endif
  return served;
}

// One accepted client: the socket and its reader thread. fd_mu guards
// the descriptor's lifetime against the drain's half-close.
struct TcpServer::Connection {
  int fd = -1;
  std::mutex fd_mu;
  std::thread thread;
  std::atomic<bool> finished{false};
};

TcpServer::TcpServer(const TcpServerOptions& options, LineHandler* handler)
    : options_(options), handler_(handler) {}

TcpServer::~TcpServer() {
  RequestDrain();
  Wait();
#ifndef _WIN32
  if (wake_pipe_[0] >= 0) ::close(wake_pipe_[0]);
  if (wake_pipe_[1] >= 0) ::close(wake_pipe_[1]);
#endif
}

Status TcpServer::Start() {
#ifdef _WIN32
  return Status::NotImplemented("TcpServer is POSIX-only");
#else
  if (listen_fd_ >= 0) return Status::Internal("TcpServer already started");
  if (::pipe(wake_pipe_) != 0) {
    return Status::IOError(std::string("pipe: ") + std::strerror(errno));
  }
  Status bound = Bind();
  if (!bound.ok()) {
    if (listen_fd_ >= 0) ::close(listen_fd_);
    listen_fd_ = -1;
    return bound;
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
#endif
}

#ifndef _WIN32
Status TcpServer::Bind() {
  const std::string& path = options_.unix_path;
  listen_fd_ = ::socket(path.empty() ? AF_INET : AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  std::string where;
  int rc = 0;
  if (!path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
      return Status::InvalidArgument("socket path too long: " + path);
    }
    // A leftover socket file from a killed process must not block a
    // restart, but a path a live server still answers on must not be
    // stolen: a connect that succeeds means the address is in use, a
    // refused one that the file is stale and safe to unlink.
    if (Result<int> probe = ConnectUnix(path); probe.ok()) {
      ::close(*probe);
      return Status::IOError("socket " + path +
                             " is in use by a running server");
    }
    ::unlink(path.c_str());
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    where = path;
    rc = ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } else {
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(options_.port));
    if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
      return Status::InvalidArgument("bad IPv4 address '" + options_.host +
                                     "'");
    }
    where = options_.host + ":" + std::to_string(options_.port);
    rc = ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  }
  if (rc < 0 || ::listen(listen_fd_, options_.backlog) < 0) {
    return Status::IOError("bind/listen " + where + ": " +
                           std::strerror(errno));
  }
  if (path.empty()) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    port_ = ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                          &len) == 0
                ? ntohs(bound.sin_port)
                : options_.port;
  }
  return Status::OK();
}
#endif

void TcpServer::RequestDrain() {
#ifndef _WIN32
  // Called from signal handlers: one flag store plus one pipe write,
  // both async-signal-safe. The accept loop does the actual teardown.
  bool expected = false;
  if (!draining_.compare_exchange_strong(expected, true)) return;
  if (wake_pipe_[1] >= 0) {
    const char byte = 'd';
    // A full pipe would mean a prior wake is still unread — fine either way.
    (void)!::write(wake_pipe_[1], &byte, 1);
  }
#endif
}

uint64_t TcpServer::Wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
  ReapFinished(/*join_all=*/true);
  std::lock_guard<std::mutex> lock(mu_);
  return connections_served_;
}

void TcpServer::ReapFinished(bool join_all) {
  std::vector<std::shared_ptr<Connection>> to_join;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = connections_.begin(); it != connections_.end();) {
      if (join_all || (*it)->finished.load(std::memory_order_acquire)) {
        to_join.push_back(*it);
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& conn : to_join) {
    if (conn->thread.joinable()) conn->thread.join();
  }
}

void TcpServer::AcceptLoop() {
#ifndef _WIN32
  for (;;) {
    // A drain requested before Start wrote no wake byte: there was no
    // pipe yet.
    if (draining()) break;
    pollfd fds[2];
    fds[0] = {listen_fd_, POLLIN, 0};
    fds[1] = {wake_pipe_[0], POLLIN, 0};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      LogError(std::string("poll: ") + std::strerror(errno));
      break;
    }
    if ((fds[1].revents & POLLIN) != 0 || draining()) break;
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int conn_fd = ::accept(listen_fd_, nullptr, nullptr);
    if (conn_fd < 0) {
      if (errno == EINTR) continue;
      LogError(std::string("accept: ") + std::strerror(errno));
      break;
    }
    ReapFinished(/*join_all=*/false);
    ObsIncrement(options_.obs, "net.connections_accepted");

    size_t live;
    {
      std::lock_guard<std::mutex> lock(mu_);
      live = connections_.size();
    }
    if (live >= static_cast<size_t>(options_.max_connections)) {
      // Connection-level load shedding: one explicit line, then close —
      // never a silent drop, never an unbounded thread count.
      ObsIncrement(options_.obs, "net.connections_rejected");
      (void)WriteAll(conn_fd,
                     "{\"status\":\"overloaded\",\"error\":\"connection "
                     "limit reached\"}\n");
      ::close(conn_fd);
      continue;
    }

    if (options_.unix_path.empty()) {
      int one = 1;
      ::setsockopt(conn_fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    auto conn = std::make_shared<Connection>();
    conn->fd = conn_fd;
    {
      std::lock_guard<std::mutex> lock(mu_);
      connections_.push_back(conn);
      ++connections_served_;
      ObsSetGauge(options_.obs, "net.connections_active",
                  static_cast<double>(connections_.size()));
    }
    conn->thread = std::thread([this, conn] { ServeConnection(conn); });
  }

  // Draining: no new clients; half-close the read side of every live
  // connection so its reader sees EOF once in-flight bytes are consumed.
  // Responses for already-handled lines still flow — SHUT_RD only.
  ::close(listen_fd_);
  listen_fd_ = -1;
  if (!options_.unix_path.empty()) ::unlink(options_.unix_path.c_str());
  std::vector<std::shared_ptr<Connection>> live;
  {
    std::lock_guard<std::mutex> lock(mu_);
    live = connections_;
  }
  for (auto& conn : live) {
    // A finished connection has already closed (and reset) its
    // descriptor, and the number may have been reused by an unrelated
    // socket by now.
    std::lock_guard<std::mutex> lock(conn->fd_mu);
    if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RD);
  }
#endif
}

void TcpServer::ServeConnection(std::shared_ptr<Connection> conn) {
#ifndef _WIN32
  (void)ServeLines(
      conn->fd, conn->fd,
      [this](const std::string& line, EmitFn emit) {
        handler_->HandleLine(line, std::move(emit));
      },
      options_.obs);
  {
    std::lock_guard<std::mutex> lock(conn->fd_mu);
    ::close(conn->fd);
    conn->fd = -1;
  }
  conn->finished.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(mu_);
    size_t active = 0;
    for (const auto& c : connections_) {
      if (!c->finished.load(std::memory_order_acquire)) ++active;
    }
    ObsSetGauge(options_.obs, "net.connections_active",
                static_cast<double>(active));
  }
#endif
}

}  // namespace net
}  // namespace ems
