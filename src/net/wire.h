// Byte-level plumbing of the networked service: host:port parsing,
// buffered newline-delimited reads from a file descriptor, SIGPIPE-safe
// full writes, and client-side connect helpers for both transports (TCP
// and Unix domain sockets). The wire grammar is the same NDJSON on every
// transport — one JSON object per '\n'-terminated line (docs/SERVING.md)
// — so these helpers are all a client needs.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "util/status.h"

namespace ems {
namespace net {

/// The longest line a reader buffers, terminator excluded. Every request
/// and response of the protocol is far below it; a longer line is
/// refused instead of growing memory without bound.
inline constexpr size_t kMaxLineBytes = size_t{16} << 20;

/// A parsed "host:port" endpoint.
struct HostPort {
  std::string host;
  int port = 0;
};

/// Parses "host:port" ("127.0.0.1:7463", ":7463" and "7463" default the
/// host to 127.0.0.1). Port 0 is allowed — the listener binds an
/// ephemeral port and reports it. IPv6 literals are not supported.
Result<HostPort> ParseHostPort(std::string_view spec);

/// \brief Buffered reader of '\n'-terminated lines from a descriptor.
///
/// Reads in 64 KiB chunks; a trailing '\r' is stripped so CRLF clients
/// work. Not thread-safe; one reader per descriptor.
class FdLineReader {
 public:
  explicit FdLineReader(int fd) : fd_(fd) {}

  /// Fills `line` (without the terminator) and returns true, or returns
  /// false at end of stream. A final unterminated line is returned
  /// before EOF is reported. Read errors surface as EOF (the connection
  /// is gone either way); error() tells them apart. A line longer than
  /// kMaxLineBytes ends the stream too: the reader drops its buffer,
  /// reads no further and reports too_large().
  bool ReadLine(std::string* line);

  bool error() const { return error_; }
  bool too_large() const { return too_large_; }

 private:
  int fd_;
  std::string buffer_;
  size_t pos_ = 0;   // start of the next line
  size_t scan_ = 0;  // bytes before this hold no '\n'
  bool eof_ = false;
  bool error_ = false;
  bool too_large_ = false;
};

/// Writes all of `data`, looping over short writes. Uses MSG_NOSIGNAL on
/// sockets so a vanished peer yields IOError instead of SIGPIPE.
Status WriteAll(int fd, std::string_view data);

/// Connects a stream socket to host:port. The returned descriptor is
/// owned by the caller (close() it).
Result<int> ConnectTcp(const std::string& host, int port);

/// Connects to a Unix domain socket path. Caller owns the descriptor.
Result<int> ConnectUnix(const std::string& path);

/// Connect helper over a loadgen/ems_top-style endpoint choice: exactly
/// one of `tcp_spec` ("host:port") or `socket_path` must be non-empty.
Result<int> ConnectEndpoint(const std::string& tcp_spec,
                            const std::string& socket_path);

}  // namespace net
}  // namespace ems
