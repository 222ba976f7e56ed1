// Listener front end of the matching service: a line-oriented server
// that accepts concurrent client connections on a TCP port or a Unix
// domain socket path and hands every received NDJSON line to a
// LineHandler together with an emit callback for the response line. The
// server owns the transport concerns only — accepting, connection caps,
// drain — while the handler (serve::ShardedMatchService) owns routing,
// admission control, and rendering. Connections and the stdin pipe share
// one line loop, ServeLines: framing, the line cap and write
// serialization.
//
// Lifecycle:
//   TcpServer server(options, &handler);
//   EMS_RETURN_NOT_OK(server.Start());     // bound; port() is real now
//   ... server.RequestDrain() from a signal handler or admin command ...
//   server.Wait();                         // all accepted lines answered
//
// Drain contract (docs/SERVING.md): RequestDrain is async-signal-safe
// (one write to a wake pipe). The accept loop then stops accepting,
// half-closes the read side of every live connection so readers see EOF
// after the bytes already in flight, and Wait() joins once every
// connection has received a response for every line it sent. A Unix
// listener removes its socket file when the accept loop exits.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/status.h"

namespace ems {

struct ObsContext;

namespace net {

/// Response sink for one request line. Thread-safe; may be invoked from
/// any thread, after HandleLine returned. Must be called exactly once
/// per handled line — the connection stays open until every pending
/// emit has fired.
using EmitFn = std::function<void(const std::string&)>;

/// \brief Per-line protocol logic plugged into the TcpServer.
class LineHandler {
 public:
  virtual ~LineHandler() = default;

  /// Handles one request line. Implementations must arrange for `emit`
  /// to be called exactly once (inline for admin commands and
  /// rejections, from a worker thread for scheduled jobs).
  virtual void HandleLine(const std::string& line, EmitFn emit) = 0;
};

/// How one input ended.
struct LinesServed {
  uint64_t lines = 0;      // non-blank lines handed to the handler
  bool too_large = false;  // a line passed kMaxLineBytes
};

/// The line loop of every transport: reads '\n'-terminated lines from
/// `in_fd` until EOF, skips blank ones, hands each to `handle` with an
/// emit that writes its response line to `out_fd` (whole lines, one at a
/// time), and returns once every handed line was answered. A line longer
/// than kMaxLineBytes stops the reading; it is answered with one
/// `too_large` line. Admission is `handle`'s concern.
LinesServed ServeLines(
    int in_fd, int out_fd,
    const std::function<void(const std::string&, EmitFn)>& handle,
    ObsContext* obs);

/// Server configuration.
struct TcpServerOptions {
  /// IPv4 address to bind. Loopback by default: exposing the service
  /// beyond the host is a deployment decision, not a default.
  std::string host = "127.0.0.1";

  /// Port to bind; 0 picks an ephemeral port (read it back via port()).
  int port = 0;

  /// Unix domain socket path to bind instead of host:port. A stale
  /// socket file is replaced; a path a live server answers on is
  /// refused.
  std::string unix_path;

  /// listen(2) backlog.
  int backlog = 64;

  /// Connection-level admission control: beyond this many live
  /// connections, new clients get one `overloaded` line and a close.
  int max_connections = 256;

  /// Sink for net.* metrics (borrowed, may be null).
  ObsContext* obs = nullptr;
};

/// \brief Accepting loop + per-connection reader threads.
class TcpServer {
 public:
  /// `handler` is borrowed and must outlive Wait().
  TcpServer(const TcpServerOptions& options, LineHandler* handler);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Binds, listens, and starts the accept thread. IOError when the
  /// address is unavailable or the Unix path is in use.
  Status Start();

  /// The bound port (after Start); useful with options.port == 0. Zero
  /// on a Unix listener.
  int port() const { return port_; }

  /// Begins the graceful drain. Async-signal-safe (a single write to an
  /// internal pipe); idempotent.
  void RequestDrain();

  /// Blocks until the drain completes: accept loop exited, every
  /// connection answered and closed. Returns the total number of
  /// connections served. Implicitly waits for a RequestDrain.
  uint64_t Wait();

  /// True once RequestDrain was called.
  bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }

 private:
  struct Connection;

  Status Bind();
  void AcceptLoop();
  void ServeConnection(std::shared_ptr<Connection> conn);
  void ReapFinished(bool join_all);

  TcpServerOptions options_;
  LineHandler* handler_;
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  int port_ = 0;
  std::atomic<bool> draining_{false};
  std::thread accept_thread_;

  std::mutex mu_;
  std::vector<std::shared_ptr<Connection>> connections_;
  uint64_t connections_served_ = 0;
};

}  // namespace net
}  // namespace ems
