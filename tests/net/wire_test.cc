// Byte-level plumbing: endpoint parsing, line framing from a raw
// descriptor, the line cap, and full writes.
#include "net/wire.h"

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#ifndef _WIN32
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace ems {
namespace net {
namespace {

TEST(ParseHostPortTest, FullAndDefaultedForms) {
  Result<HostPort> full = ParseHostPort("10.1.2.3:7463");
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->host, "10.1.2.3");
  EXPECT_EQ(full->port, 7463);

  Result<HostPort> colon = ParseHostPort(":80");
  ASSERT_TRUE(colon.ok());
  EXPECT_EQ(colon->host, "127.0.0.1");
  EXPECT_EQ(colon->port, 80);

  Result<HostPort> bare = ParseHostPort("9000");
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare->host, "127.0.0.1");
  EXPECT_EQ(bare->port, 9000);

  Result<HostPort> ephemeral = ParseHostPort("127.0.0.1:0");
  ASSERT_TRUE(ephemeral.ok());
  EXPECT_EQ(ephemeral->port, 0);
}

TEST(ParseHostPortTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(ParseHostPort("").ok());
  EXPECT_FALSE(ParseHostPort("host:").ok());
  EXPECT_FALSE(ParseHostPort("host:abc").ok());
  EXPECT_FALSE(ParseHostPort("host:12x").ok());
  EXPECT_FALSE(ParseHostPort("host:70000").ok());
  EXPECT_FALSE(ParseHostPort("host:-1").ok());
}

#ifndef _WIN32
TEST(FdLineReaderTest, SplitsLinesAndStripsCrlf) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::string payload = "alpha\nbeta\r\n\ngamma";  // no final \n
  ASSERT_TRUE(WriteAll(fds[1], payload).ok());
  ::close(fds[1]);

  FdLineReader reader(fds[0]);
  std::vector<std::string> lines;
  std::string line;
  while (reader.ReadLine(&line)) lines.push_back(line);
  ::close(fds[0]);

  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0], "alpha");
  EXPECT_EQ(lines[1], "beta");
  EXPECT_EQ(lines[2], "");
  EXPECT_EQ(lines[3], "gamma");  // final unterminated line surfaces
  EXPECT_FALSE(reader.error());
}

TEST(FdLineReaderTest, HandlesLinesLargerThanTheReadChunk) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  // Pipes buffer ~64 KiB; write from a helper-free second step: a line
  // just under the pipe capacity still exceeds the reader's chunk size.
  const std::string big(48 * 1024, 'x');
  ASSERT_TRUE(WriteAll(fds[1], big + "\ntail\n").ok());
  ::close(fds[1]);

  FdLineReader reader(fds[0]);
  std::string line;
  ASSERT_TRUE(reader.ReadLine(&line));
  EXPECT_EQ(line.size(), big.size());
  EXPECT_EQ(line, big);
  ASSERT_TRUE(reader.ReadLine(&line));
  EXPECT_EQ(line, "tail");
  EXPECT_FALSE(reader.ReadLine(&line));
  ::close(fds[0]);
}

// A line of exactly kMaxLineBytes is served; the next, one byte longer,
// ends the stream without buffering further: the writer's sends fail
// once the reader closes, long before its own bound.
TEST(FdLineReaderTest, RefusesALineLongerThanTheCap) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  uint64_t sent = 0;
  std::thread writer([fd = fds[1], &sent] {
    const std::string chunk(size_t{1} << 20, 'x');
    bool ok = true;
    while (ok && sent < kMaxLineBytes) {
      ok = WriteAll(fd, chunk).ok();
      sent += chunk.size();
    }
    ok = ok && WriteAll(fd, "\n").ok();
    while (ok && sent < 8 * kMaxLineBytes) {
      ok = WriteAll(fd, chunk).ok();
      if (ok) sent += chunk.size();
    }
    ::close(fd);
  });

  FdLineReader reader(fds[0]);
  std::string line;
  ASSERT_TRUE(reader.ReadLine(&line));
  EXPECT_EQ(line.size(), kMaxLineBytes);
  EXPECT_FALSE(reader.ReadLine(&line));
  EXPECT_TRUE(reader.too_large());
  EXPECT_FALSE(reader.error());
  EXPECT_TRUE(line.empty());
  EXPECT_FALSE(reader.ReadLine(&line));  // the stream stays ended
  ::close(fds[0]);
  writer.join();
  EXPECT_LT(sent, 4 * kMaxLineBytes);
}

TEST(WriteAllTest, RoundTripsThroughAPipe) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_TRUE(WriteAll(fds[1], "hello world\n").ok());
  ::close(fds[1]);
  char buffer[64] = {};
  const ssize_t n = ::read(fds[0], buffer, sizeof(buffer));
  ::close(fds[0]);
  EXPECT_EQ(std::string(buffer, static_cast<size_t>(n)), "hello world\n");
}

TEST(WriteAllTest, FailsOnClosedDescriptor) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ::close(fds[0]);
  ::close(fds[1]);
  EXPECT_FALSE(WriteAll(fds[1], "x").ok());
}
#endif

TEST(ConnectEndpointTest, RequiresExactlyOneEndpoint) {
  EXPECT_TRUE(ConnectEndpoint("", "").status().IsInvalidArgument());
  EXPECT_TRUE(ConnectEndpoint("127.0.0.1:1", "/tmp/sock")
                  .status()
                  .IsInvalidArgument());
}

TEST(ConnectEndpointTest, RefusedConnectionSurfacesAsError) {
  // Port 1 on loopback is essentially never listening in the test
  // environment; either refusal or permission failure is an error.
  EXPECT_FALSE(ConnectEndpoint("127.0.0.1:1", "").ok());
  EXPECT_FALSE(ConnectEndpoint("", "/no/such/socket/path").ok());
}

}  // namespace
}  // namespace net
}  // namespace ems
