// Transport behavior of the listener front end: framing round trips,
// concurrent connections, the connection cap, the line cap, and the
// drain contract (every accepted line answered, even when emits come
// late from worker threads). The Unix socket path is driven end to end
// by serve_smoke_test.
#ifndef _WIN32

#include "net/tcp_server.h"

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include "net/wire.h"
#include "obs/context.h"

namespace ems {
namespace net {
namespace {

// Answers every line with "echo:<line>" inline.
class EchoHandler : public LineHandler {
 public:
  void HandleLine(const std::string& line, EmitFn emit) override {
    emit("echo:" + line);
  }
};

// Answers from a worker thread after a delay — the shape of a real
// match job, and the case the drain logic has to wait out.
class SlowHandler : public LineHandler {
 public:
  ~SlowHandler() override {
    for (std::thread& t : threads_) t.join();
  }

  void HandleLine(const std::string& line, EmitFn emit) override {
    std::lock_guard<std::mutex> lock(mu_);
    threads_.emplace_back([line, emit] {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      emit("late:" + line);
    });
  }

 private:
  std::mutex mu_;
  std::vector<std::thread> threads_;
};

TEST(TcpServerTest, BindsEphemeralPortAndEchoesLines) {
  EchoHandler handler;
  TcpServerOptions options;
  TcpServer server(options, &handler);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  Result<int> fd = ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(WriteAll(*fd, "one\ntwo\n").ok());
  ::shutdown(*fd, SHUT_WR);

  FdLineReader reader(*fd);
  std::string line;
  ASSERT_TRUE(reader.ReadLine(&line));
  EXPECT_EQ(line, "echo:one");
  ASSERT_TRUE(reader.ReadLine(&line));
  EXPECT_EQ(line, "echo:two");
  EXPECT_FALSE(reader.ReadLine(&line));  // server closes after EOF+drain
  ::close(*fd);

  server.RequestDrain();
  EXPECT_EQ(server.Wait(), 1u);
}

TEST(TcpServerTest, ServesConcurrentConnections) {
  EchoHandler handler;
  TcpServerOptions options;
  TcpServer server(options, &handler);
  ASSERT_TRUE(server.Start().ok());

  const int kClients = 8;
  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&server, &ok, i] {
      Result<int> fd = ConnectTcp("127.0.0.1", server.port());
      if (!fd.ok()) return;
      const std::string msg = "client-" + std::to_string(i);
      if (WriteAll(*fd, msg + "\n").ok()) {
        ::shutdown(*fd, SHUT_WR);
        FdLineReader reader(*fd);
        std::string line;
        if (reader.ReadLine(&line) && line == "echo:" + msg) ok++;
      }
      ::close(*fd);
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(ok.load(), kClients);

  server.RequestDrain();
  EXPECT_EQ(server.Wait(), static_cast<uint64_t>(kClients));
}

TEST(TcpServerTest, ConnectionCapSheds) {
  SlowHandler handler;  // keeps the first connection occupied
  TcpServerOptions options;
  options.max_connections = 1;
  ObsContext obs;
  options.obs = &obs;
  TcpServer server(options, &handler);
  ASSERT_TRUE(server.Start().ok());

  Result<int> first = ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(WriteAll(*first, "held\n").ok());

  // The second connection must get one overloaded line and a close.
  Result<int> second = ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(second.ok());
  FdLineReader reader(*second);
  std::string line;
  ASSERT_TRUE(reader.ReadLine(&line));
  EXPECT_NE(line.find("\"status\":\"overloaded\""), std::string::npos)
      << line;
  EXPECT_FALSE(reader.ReadLine(&line));
  ::close(*second);

  ::shutdown(*first, SHUT_WR);
  FdLineReader first_reader(*first);
  ASSERT_TRUE(first_reader.ReadLine(&line));
  EXPECT_EQ(line, "late:held");
  ::close(*first);

  server.RequestDrain();
  server.Wait();
  EXPECT_EQ(obs.metrics.CounterValue("net.connections_rejected"), 1u);
}

// The drain contract: lines already received keep their responses even
// when the emits arrive late, and Wait() only returns once they did.
TEST(TcpServerTest, DrainAnswersEveryAcceptedLine) {
  SlowHandler handler;
  TcpServerOptions options;
  TcpServer server(options, &handler);
  ASSERT_TRUE(server.Start().ok());

  Result<int> fd = ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(WriteAll(*fd, "a\nb\n").ok());
  // Give the reader thread a moment to pick both lines up, then drain
  // mid-flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.RequestDrain();
  EXPECT_TRUE(server.draining());

  FdLineReader reader(*fd);
  std::string line;
  int answered = 0;
  while (reader.ReadLine(&line)) {
    EXPECT_EQ(line.rfind("late:", 0), 0u) << line;
    ++answered;
  }
  ::close(*fd);
  EXPECT_EQ(answered, 2);
  EXPECT_EQ(server.Wait(), 1u);
}

// A client sending a line past the cap gets one too_large line and a
// close; the server stops reading it and keeps serving other clients.
TEST(TcpServerTest, OverlongLineIsRefusedAndTheConnectionCloses) {
  EchoHandler handler;
  TcpServerOptions options;
  ObsContext obs;
  options.obs = &obs;
  TcpServer server(options, &handler);
  ASSERT_TRUE(server.Start().ok());

  Result<int> fd = ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(WriteAll(*fd, "short\n").ok());
  std::atomic<uint64_t> sent{0};
  std::thread writer([fd = *fd, &sent] {
    const std::string chunk(size_t{1} << 20, 'x');
    while (sent.load() < 8 * kMaxLineBytes && WriteAll(fd, chunk).ok()) {
      sent += chunk.size();
    }
  });
  FdLineReader reader(*fd);
  std::string line;
  ASSERT_TRUE(reader.ReadLine(&line));
  EXPECT_EQ(line, "echo:short");
  ASSERT_TRUE(reader.ReadLine(&line));
  EXPECT_EQ(line.rfind(R"({"status":"too_large")", 0), 0u) << line;
  EXPECT_FALSE(reader.ReadLine(&line));  // the server closed
  writer.join();
  ::close(*fd);
  EXPECT_LT(sent.load(), 4 * kMaxLineBytes);
  EXPECT_EQ(obs.metrics.CounterValue("net.lines_too_large"), 1u);

  Result<int> next = ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(next.ok());
  ASSERT_TRUE(WriteAll(*next, "again\n").ok());
  ::shutdown(*next, SHUT_WR);
  FdLineReader next_reader(*next);
  ASSERT_TRUE(next_reader.ReadLine(&line));
  EXPECT_EQ(line, "echo:again");
  ::close(*next);

  server.RequestDrain();
  EXPECT_EQ(server.Wait(), 2u);
}

TEST(TcpServerTest, RequestDrainIsIdempotentAndWaitReturns) {
  EchoHandler handler;
  TcpServerOptions options;
  TcpServer server(options, &handler);
  ASSERT_TRUE(server.Start().ok());
  server.RequestDrain();
  server.RequestDrain();
  EXPECT_EQ(server.Wait(), 0u);
}

TEST(TcpServerTest, StartFailsOnUnavailableAddress) {
  EchoHandler handler;
  TcpServerOptions options;
  options.host = "203.0.113.1";  // TEST-NET; not a local interface
  options.port = 1;
  TcpServer server(options, &handler);
  EXPECT_FALSE(server.Start().ok());
}

}  // namespace
}  // namespace net
}  // namespace ems

#endif  // _WIN32
