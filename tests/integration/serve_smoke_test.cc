// End-to-end smoke test of the ems_serve binary: pipes three job lines
// through it and validates the JSON responses and the metrics export.
// The binary path is injected by CMake as EMS_SERVE_BINARY.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace ems
