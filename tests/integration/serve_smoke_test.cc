// End-to-end smoke test of the ems_serve binary: pipes job lines through
// it and validates the JSON responses and the metrics export, and drives
// its --socket listener with concurrent clients and SIGTERM. The binary
// path is injected by CMake as EMS_SERVE_BINARY.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#ifndef _WIN32
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <thread>

#include "net/wire.h"

extern char** environ;
#endif

namespace ems {
namespace {

std::string TempDir() {
  const char* env = std::getenv("TMPDIR");
  return env != nullptr ? env : "/tmp";
}

void WriteFile(const std::string& path, const std::string& body) {
  std::ofstream out(path);
  ASSERT_TRUE(out) << path;
  out << body;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Brace/bracket balance outside string literals — same validator as
// metrics_export_test.
bool BalancedJson(const std::string& s) {
  std::string stack;
  bool in_string = false;
  bool escaped = false;
  for (char c : s) {
    if (in_string) {
      if (escaped) escaped = false;
      else if (c == '\\') escaped = true;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{' || c == '[') stack += c;
    else if (c == '}') {
      if (stack.empty() || stack.back() != '{') return false;
      stack.pop_back();
    } else if (c == ']') {
      if (stack.empty() || stack.back() != '[') return false;
      stack.pop_back();
    }
  }
  return stack.empty() && !in_string;
}

TEST(ServeSmokeTest, ThreeJobsYieldThreeJsonResponsesAndMetrics) {
  const std::string dir = TempDir();
  const std::string log1 = dir + "/serve_smoke_log1.txt";
  const std::string log2 = dir + "/serve_smoke_log2.txt";
  const std::string jobs = dir + "/serve_smoke_jobs.ndjson";
  const std::string results = dir + "/serve_smoke_results.ndjson";
  const std::string metrics = dir + "/serve_smoke_metrics.json";
  WriteFile(log1, "a;b;c;d\na;b;d\na;c;d\nb;a;c;d\n");
  WriteFile(log2, "a;b;c;d\na;b;d\na;c;b;d\nb;c;d\n");

  std::ostringstream job_lines;
  const std::string pair =
      "\"log1\":\"" + log1 + "\",\"log2\":\"" + log2 + "\"";
  job_lines << "{\"id\":\"j1\"," << pair << ",\"labels\":\"none\"}\n";
  job_lines << "{\"id\":\"j2\"," << pair << "}\n";
  job_lines << "{\"id\":\"j3\"," << pair
            << ",\"engine\":\"estimated\",\"iterations\":3}\n";
  WriteFile(jobs, job_lines.str());

  const std::string cmd = std::string(EMS_SERVE_BINARY) + " --threads=2" +
                          " --metrics-out=" + metrics + " < " + jobs + " > " +
                          results + " 2> /dev/null";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;

  // One well-formed JSON response per job, every one ok.
  std::ifstream in(results);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 3u);
  std::string ids;
  for (const std::string& l : lines) {
    EXPECT_TRUE(BalancedJson(l)) << l;
    EXPECT_NE(l.find("\"status\":\"ok\""), std::string::npos) << l;
    EXPECT_NE(l.find("\"correspondences\""), std::string::npos) << l;
    EXPECT_NE(l.find("\"millis\""), std::string::npos) << l;
    ids += l.substr(0, l.find(','));  // {"id":"jN"
  }
  // All three ids came back (order may differ: completion order).
  EXPECT_NE(ids.find("j1"), std::string::npos);
  EXPECT_NE(ids.find("j2"), std::string::npos);
  EXPECT_NE(ids.find("j3"), std::string::npos);

  // The metrics export carries the service and pool instruments.
  std::string report = ReadFile(metrics);
  ASSERT_FALSE(report.empty());
  EXPECT_TRUE(BalancedJson(report));
  EXPECT_NE(report.find("\"serve.jobs_submitted\":3"), std::string::npos);
  EXPECT_NE(report.find("\"serve.jobs_ok\":3"), std::string::npos);
  // Exact hit/miss counts vary with scheduling (concurrent first touches
  // may both miss); the instruments must exist either way.
  EXPECT_NE(report.find("\"serve.cache.misses\""), std::string::npos);
  EXPECT_NE(report.find("\"serve.cache.hits\""), std::string::npos);
  EXPECT_NE(report.find("\"serve.latency_ms.ok\""), std::string::npos);
  EXPECT_NE(report.find("\"exec.pool.tasks_submitted\""), std::string::npos);

  std::remove(log1.c_str());
  std::remove(log2.c_str());
  std::remove(jobs.c_str());
  std::remove(results.c_str());
  std::remove(metrics.c_str());
}

TEST(ServeSmokeTest, ErrorJobsRenderAsErrorLinesWithExitZero) {
  const std::string dir = TempDir();
  const std::string jobs = dir + "/serve_smoke_badjobs.ndjson";
  const std::string results = dir + "/serve_smoke_badresults.ndjson";
  WriteFile(jobs,
            "{\"id\":\"nope\",\"log1\":\"/no/such/file.txt\","
            "\"log2\":\"/no/such/other.txt\"}\n"
            "this is not json\n");

  const std::string cmd = std::string(EMS_SERVE_BINARY) + " < " + jobs +
                          " > " + results + " 2> /dev/null";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;

  std::ifstream in(results);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 2u);
  for (const std::string& l : lines) {
    EXPECT_TRUE(BalancedJson(l)) << l;
    EXPECT_NE(l.find("\"status\":\"error\""), std::string::npos) << l;
  }

  std::remove(jobs.c_str());
  std::remove(results.c_str());
}

// The telemetry plane end to end: admin commands answered on the job
// stream and a --stats-out exposition file written by the background
// exporter (final write on shutdown covers short runs).
TEST(ServeSmokeTest, StatsIntervalWritesExpositionAndAdminCommandsAnswer) {
  const std::string dir = TempDir();
  const std::string log1 = dir + "/serve_stats_log1.txt";
  const std::string log2 = dir + "/serve_stats_log2.txt";
  const std::string jobs = dir + "/serve_stats_jobs.ndjson";
  const std::string results = dir + "/serve_stats_results.ndjson";
  const std::string stats_out = dir + "/serve_stats_exposition.prom";
  std::remove(stats_out.c_str());
  WriteFile(log1, "a;b;c;d\na;b;d\na;c;d\n");
  WriteFile(log2, "a;b;c;d\na;c;b;d\nb;c;d\n");

  std::ostringstream job_lines;
  const std::string pair =
      "\"log1\":\"" + log1 + "\",\"log2\":\"" + log2 + "\"";
  job_lines << "{\"id\":\"j1\"," << pair << ",\"labels\":\"none\"}\n";
  job_lines << "{\"cmd\":\"stats\",\"id\":\"s1\"}\n";
  job_lines << "{\"id\":\"j2\"," << pair << ",\"labels\":\"none\"}\n";
  job_lines << "{\"cmd\":\"health\",\"id\":\"h1\"}\n";
  job_lines << "{\"cmd\":\"slow\",\"id\":\"sl1\"}\n";
  WriteFile(jobs, job_lines.str());

  const std::string cmd = std::string(EMS_SERVE_BINARY) + " --threads=2" +
                          " --stats-out=" + stats_out +
                          " --stats-interval=30 --log-level=error < " + jobs +
                          " > " + results + " 2> /dev/null";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;

  std::ifstream in(results);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 5u);  // 2 jobs + 3 admin responses
  std::string all;
  for (const std::string& l : lines) {
    EXPECT_TRUE(BalancedJson(l)) << l;
    all += l;
    all += '\n';
  }
  EXPECT_NE(all.find("\"id\":\"s1\""), std::string::npos);
  EXPECT_NE(all.find("\"cmd\":\"stats\""), std::string::npos);
  EXPECT_NE(all.find("\"id\":\"h1\""), std::string::npos);
  EXPECT_NE(all.find("\"healthy\":true"), std::string::npos);
  EXPECT_NE(all.find("\"id\":\"sl1\""), std::string::npos);
  EXPECT_NE(all.find("\"flight_recorder\""), std::string::npos);

  // The exporter's shutdown write landed even though the interval (30s)
  // never elapsed, and the document is exposition text, not JSON.
  const std::string exposition = ReadFile(stats_out);
  ASSERT_FALSE(exposition.empty());
  EXPECT_NE(exposition.find("# TYPE serve_jobs_ok_total counter"),
            std::string::npos);
  EXPECT_NE(exposition.find("serve_jobs_ok_total 2"), std::string::npos);
  EXPECT_NE(exposition.find("# TYPE serve_latency_ms_ok summary"),
            std::string::npos);
  EXPECT_NE(exposition.find("serve_latency_ms_ok{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(exposition.find("# TYPE exec_pool_task_millis summary"),
            std::string::npos);
  // No half-written temp file left behind.
  EXPECT_FALSE(std::ifstream(stats_out + ".tmp").good());

  std::remove(log1.c_str());
  std::remove(log2.c_str());
  std::remove(jobs.c_str());
  std::remove(results.c_str());
  std::remove(stats_out.c_str());
}

// --log-level gates the structured stderr stream: error keeps it silent
// on a clean run, debug emits JSON event lines.
TEST(ServeSmokeTest, LogLevelControlsStderrVerbosity) {
  const std::string dir = TempDir();
  const std::string jobs = dir + "/serve_log_jobs.ndjson";
  const std::string err_quiet = dir + "/serve_log_quiet.stderr";
  const std::string err_debug = dir + "/serve_log_debug.stderr";
  WriteFile(jobs, "{\"cmd\":\"health\",\"id\":\"h\"}\n");

  const std::string quiet_cmd = std::string(EMS_SERVE_BINARY) +
                                " --log-level=error < " + jobs +
                                " > /dev/null 2> " + err_quiet;
  ASSERT_EQ(std::system(quiet_cmd.c_str()), 0) << quiet_cmd;
  EXPECT_EQ(ReadFile(err_quiet), "");

  const std::string debug_cmd = std::string(EMS_SERVE_BINARY) +
                                " --log-level=debug < " + jobs +
                                " > /dev/null 2> " + err_debug;
  ASSERT_EQ(std::system(debug_cmd.c_str()), 0) << debug_cmd;
  const std::string debug_log = ReadFile(err_debug);
  ASSERT_FALSE(debug_log.empty());
  // Every stderr line is one structured JSON event.
  std::istringstream events(debug_log);
  std::string event;
  while (std::getline(events, event)) {
    if (event.empty()) continue;
    EXPECT_TRUE(BalancedJson(event)) << event;
    EXPECT_NE(event.find("\"ts\":\""), std::string::npos) << event;
    EXPECT_NE(event.find("\"level\":\""), std::string::npos) << event;
    EXPECT_NE(event.find("\"msg\":\""), std::string::npos) << event;
  }
  EXPECT_NE(debug_log.find("stream done"), std::string::npos);

  // An invalid level is rejected with a usage error.
  const std::string bad_cmd = std::string(EMS_SERVE_BINARY) +
                              " --log-level=loud < /dev/null > /dev/null 2> "
                              "/dev/null";
  EXPECT_NE(std::system(bad_cmd.c_str()), 0);

  std::remove(jobs.c_str());
  std::remove(err_quiet.c_str());
  std::remove(err_debug.c_str());
}

// A pipe never sheds: one worker, a one-slot queue, and every line of a
// batch far longer than the admission cap is answered ok.
TEST(ServeSmokeTest, PipeAnswersEveryJobAtAOneSlotQueue) {
  const std::string dir = TempDir();
  const std::string log1 = dir + "/serve_pipe_log1.txt";
  const std::string log2 = dir + "/serve_pipe_log2.txt";
  const std::string jobs = dir + "/serve_pipe_jobs.ndjson";
  const std::string results = dir + "/serve_pipe_results.ndjson";
  WriteFile(log1, "a;b;c;d\na;b;d\na;c;d\n");
  WriteFile(log2, "a;b;c;d\na;c;b;d\nb;c;d\n");
  std::ostringstream job_lines;
  constexpr int kJobs = 100;
  for (int i = 0; i < kJobs; ++i) {
    job_lines << "{\"id\":\"p" << i << "\",\"log1\":\"" << log1
              << "\",\"log2\":\"" << log2 << "\",\"labels\":\"none\"}\n";
  }
  WriteFile(jobs, job_lines.str());
  const std::string cmd = std::string(EMS_SERVE_BINARY) +
                          " --threads=1 --queue-size=1 < " + jobs + " > " +
                          results + " 2> /dev/null";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
  std::ifstream in(results);
  int ok = 0;
  std::string line;
  while (std::getline(in, line)) {
    EXPECT_NE(line.find("\"status\":\"ok\""), std::string::npos) << line;
    ++ok;
  }
  EXPECT_EQ(ok, kJobs);
  for (const std::string& f : {log1, log2, jobs, results}) {
    std::remove(f.c_str());
  }
}

#ifndef _WIN32
// An `ems_serve --socket=PATH` child process; SIGKILLed if a test ends
// without stopping it.
class SocketServer {
 public:
  explicit SocketServer(const std::string& path) {
    const std::string socket_flag = "--socket=" + path;
    char binary[] = EMS_SERVE_BINARY;
    char threads[] = "--threads=1";
    std::vector<char*> argv = {binary, const_cast<char*>(socket_flag.c_str()),
                               threads, nullptr};
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
    posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
    posix_spawn_file_actions_addopen(&actions, 2, "/dev/null", O_WRONLY, 0);
    if (posix_spawn(&pid_, binary, &actions, nullptr, argv.data(),
                    environ) != 0) {
      pid_ = -1;
    }
    posix_spawn_file_actions_destroy(&actions);
  }

  ~SocketServer() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }

  bool started() const { return pid_ > 0; }

  // Sends `signo` (0: none) and returns the exit code, or -1 when the
  // process died by a signal or did not exit within ten seconds.
  int Stop(int signo) {
    if (signo != 0) ::kill(pid_, signo);
    for (int i = 0; i < 1000; ++i) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return -1;
  }

 private:
  pid_t pid_ = -1;
};

// Connects to `path`, retrying while the server starts up.
int ConnectWhenUp(const std::string& path) {
  for (int i = 0; i < 500; ++i) {
    Result<int> fd = net::ConnectUnix(path);
    if (fd.ok()) return *fd;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return -1;
}

// Sends one line and returns the response line, or "" when none arrives
// within `timeout_ms`.
std::string Ask(int fd, const std::string& line, int timeout_ms) {
  if (!net::WriteAll(fd, line + "\n").ok()) return "";
  std::string response;
  char c = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    pollfd pfd{fd, POLLIN, 0};
    if (left.count() <= 0 ||
        ::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) {
      return "";
    }
    if (::read(fd, &c, 1) != 1) return "";
    if (c == '\n') return response;
    response += c;
  }
}

std::string SocketPath(const std::string& name) {
  return TempDir() + "/" + name + ".sock";
}

// With client A connected and idle, client B's health probe is answered
// at once: the listener serves clients concurrently.
TEST(ServeSmokeTest, SocketServesAProbeBesideAnIdleClient) {
  const std::string path = SocketPath("serve_smoke_concurrent");
  ::unlink(path.c_str());
  SocketServer server(path);
  ASSERT_TRUE(server.started());
  const int a = ConnectWhenUp(path);
  ASSERT_GE(a, 0);
  const int b = ConnectWhenUp(path);
  ASSERT_GE(b, 0);
  const std::string health = Ask(b, R"({"cmd":"health","id":"hb"})", 2000);
  EXPECT_NE(health.find("\"id\":\"hb\""), std::string::npos) << health;
  EXPECT_NE(health.find("\"healthy\":true"), std::string::npos) << health;
  // A's own probe is answered too, on its own connection.
  const std::string stats = Ask(a, R"({"cmd":"stats","id":"sa"})", 2000);
  EXPECT_NE(stats.find("\"id\":\"sa\""), std::string::npos) << stats;
  ::close(a);
  ::close(b);
  EXPECT_EQ(server.Stop(SIGTERM), 0);
}

// A stale socket file is replaced; a path a live server holds is refused
// with a nonzero exit, and the live server keeps answering on it.
TEST(ServeSmokeTest, SocketReplacesStaleFileAndRefusesALivePath) {
  const std::string path = SocketPath("serve_smoke_stale");
  ::unlink(path.c_str());
  {
    const int stale = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::bind(stale, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    ::close(stale);  // the file stays, nobody listens
  }
  SocketServer server(path);
  ASSERT_TRUE(server.started());
  const int fd = ConnectWhenUp(path);
  ASSERT_GE(fd, 0);
  EXPECT_NE(Ask(fd, R"({"cmd":"health","id":"h1"})", 2000).find("\"h1\""),
            std::string::npos);

  SocketServer rival(path);
  ASSERT_TRUE(rival.started());
  const int rival_exit = rival.Stop(0);
  EXPECT_GT(rival_exit, 0);
  EXPECT_NE(Ask(fd, R"({"cmd":"health","id":"h2"})", 2000).find("\"h2\""),
            std::string::npos);
  ::close(fd);
  EXPECT_EQ(server.Stop(SIGTERM), 0);
}

// SIGTERM drains: the answered client sees EOF, the process exits 0 and
// the socket file is gone.
TEST(ServeSmokeTest, SocketDrainsOnSigtermAndRemovesItsFile) {
  const std::string dir = TempDir();
  const std::string log1 = dir + "/serve_socket_log1.txt";
  const std::string log2 = dir + "/serve_socket_log2.txt";
  WriteFile(log1, "a;b;c;d\na;b;d\na;c;d\n");
  WriteFile(log2, "a;b;c;d\na;c;b;d\nb;c;d\n");
  const std::string path = SocketPath("serve_smoke_drain");
  ::unlink(path.c_str());
  SocketServer server(path);
  ASSERT_TRUE(server.started());
  const int fd = ConnectWhenUp(path);
  ASSERT_GE(fd, 0);
  const std::string job = Ask(fd,
                              "{\"id\":\"j1\",\"log1\":\"" + log1 +
                                  "\",\"log2\":\"" + log2 +
                                  "\",\"labels\":\"none\"}",
                              5000);
  EXPECT_EQ(job.rfind(R"({"id":"j1","status":"ok")", 0), 0u) << job;

  EXPECT_EQ(server.Stop(SIGTERM), 0);
  char c = 0;
  EXPECT_EQ(::read(fd, &c, 1), 0);  // drained: EOF, not a reset
  ::close(fd);
  EXPECT_NE(::access(path.c_str(), F_OK), 0);
  std::remove(log1.c_str());
  std::remove(log2.c_str());
}

// A malformed numeric flag is a usage error (exit 2) naming the flag,
// even with nothing on stdin to serve.
TEST(ServeSmokeTest, MalformedNumericFlagIsAUsageError) {
  const std::string err = TempDir() + "/serve_bad_flag.stderr";
  const std::string cmd = std::string(EMS_SERVE_BINARY) +
                          " --threads=two < /dev/null > /dev/null 2> " + err;
  const int status = std::system(cmd.c_str());
  ASSERT_TRUE(WIFEXITED(status)) << cmd;
  EXPECT_EQ(WEXITSTATUS(status), 2) << cmd;
  EXPECT_NE(ReadFile(err).find("--threads"), std::string::npos)
      << ReadFile(err);
  std::remove(err.c_str());
}

#endif

}  // namespace
}  // namespace ems
