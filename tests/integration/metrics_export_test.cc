// End-to-end check of `ems_match --metrics-out`: runs the real binary on
// two small trace-format logs and asserts the exported PipelineReport is
// well-formed JSON carrying the expected phase spans and counters. The
// binary path is injected by CMake as EMS_MATCH_BINARY.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>
#include <sys/wait.h>

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

// Minimal structural validator: walks the document and checks that
// braces/brackets nest correctly outside of string literals.
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

// The integer value of the counter `name` in a compact report, or -1.
long long CounterValue(const std::string& report, const std::string& name) {
  const std::string key = "\"" + name + "\":";
  const size_t at = report.find(key);
  if (at == std::string::npos) return -1;
  return std::atoll(report.c_str() + at + key.size());
}

TEST(MetricsExportTest, EmsMatchWritesPipelineReportJson) {
  const std::string dir = TempDir();
  const std::string log1 = dir + "/metrics_export_log1.txt";
  const std::string log2 = dir + "/metrics_export_log2.txt";
  const std::string metrics = dir + "/metrics_export_report.json";
  const std::string trace = dir + "/metrics_export_trace.json";
  WriteFile(log1, "a;b;c;d\na;b;d\na;c;d\nb;a;c;d\n");
  WriteFile(log2, "a;b;c;d\na;b;d\na;c;b;d\nb;c;d\n");

  std::string cmd = std::string(EMS_MATCH_BINARY) + " --labels=none" +
                    " --metrics-out=" + metrics + " --trace-out=" + trace +
                    " " + log1 + " " + log2 + " > /dev/null";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;

  std::string report = ReadFile(metrics);
  ASSERT_FALSE(report.empty());
  EXPECT_TRUE(BalancedJson(report));

  // The span tree covers the pipeline phases...
  EXPECT_NE(report.find("\"load_logs\""), std::string::npos);
  EXPECT_NE(report.find("\"match\""), std::string::npos);
  EXPECT_NE(report.find("\"graph_build\""), std::string::npos);
  EXPECT_NE(report.find("\"ems_fixpoint\""), std::string::npos);
  EXPECT_NE(report.find("\"ems_forward\""), std::string::npos);
  EXPECT_NE(report.find("\"ems_backward\""), std::string::npos);
  EXPECT_NE(report.find("\"selection\""), std::string::npos);
  // ...and the registry carries the headline counters.
  EXPECT_NE(report.find("\"ems.iterations\""), std::string::npos);
  EXPECT_NE(report.find("\"ems.formula_evaluations\""), std::string::npos);
  EXPECT_NE(report.find("\"ems.pairs_pruned_converged\""), std::string::npos);
  EXPECT_NE(report.find("\"ems.pairs_skipped_unchanged\""), std::string::npos);
  EXPECT_NE(report.find("\"ems.coefficient_table_bytes\""), std::string::npos);
  EXPECT_NE(report.find("\"graph.builds\":2"), std::string::npos);
  EXPECT_NE(report.find("\"total_millis\""), std::string::npos);
  // One EMS run: its iteration count is a quantile histogram.
  EXPECT_NE(report.find("\"ems.iterations_per_run\":{\"count\":1,"),
            std::string::npos);
  // The EmsStats block mirrors the delta-skip counter too.
  EXPECT_NE(report.find("\"pairs_skipped_unchanged\""), std::string::npos);

  // The Chrome trace is a separate, also balanced document.
  std::string chrome = ReadFile(trace);
  ASSERT_FALSE(chrome.empty());
  EXPECT_TRUE(BalancedJson(chrome));
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\":\"X\""), std::string::npos);

  std::remove(log1.c_str());
  std::remove(log2.c_str());
  std::remove(metrics.c_str());
  std::remove(trace.c_str());
}

// A numeric flag takes one whole number: garbage, a trailing suffix or
// a decimal comma is a usage error (exit 2) naming the flag, never a
// prefix parsed as a silent default.
TEST(MetricsExportTest, EmsMatchRejectsMalformedNumericFlags) {
  const std::string dir = TempDir();
  const std::string log = dir + "/metrics_export_flags.txt";
  const std::string err = dir + "/metrics_export_flags.stderr";
  WriteFile(log, "a;b;c\na;c\n");
  for (const std::string flag :
       {"--alpha=abc", "--alpha=0,3", "--threads=two", "--topk=x",
        "--c=0.8x"}) {
    const std::string cmd = std::string(EMS_MATCH_BINARY) + " " + flag +
                            " " + log + " " + log + " > /dev/null 2> " + err;
    const int status = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << cmd;
    EXPECT_EQ(WEXITSTATUS(status), 2) << cmd;
    const std::string name = flag.substr(0, flag.find('='));
    EXPECT_NE(ReadFile(err).find(name), std::string::npos) << ReadFile(err);
  }
  std::remove(log.c_str());
  std::remove(err.c_str());
}

// --cache-dir wires the persistent artifact store into the exported
// registry: a cold run writes snapshots (store.misses / store.writes),
// a second run over the same inputs hits them (store.hits) and produces
// byte-identical correspondences.
TEST(MetricsExportTest, CacheDirExportsStoreCountersAndIdenticalResults) {
  const std::string dir = TempDir();
  const std::string log1 = dir + "/metrics_export_store1.txt";
  const std::string log2 = dir + "/metrics_export_store2.txt";
  const std::string cache_dir = dir + "/metrics_export_store_cache";
  const std::string cold_metrics = dir + "/metrics_export_store_cold.json";
  const std::string warm_metrics = dir + "/metrics_export_store_warm.json";
  const std::string cold_out = dir + "/metrics_export_store_cold.out";
  const std::string warm_out = dir + "/metrics_export_store_warm.out";
  WriteFile(log1, "a;b;c;d\na;b;d\na;c;d\nb;a;c;d\n");
  WriteFile(log2, "a;b;c;d\na;b;d\na;c;b;d\nb;c;d\n");
  std::system(("rm -rf " + cache_dir).c_str());

  const std::string base = std::string(EMS_MATCH_BINARY) +
                           " --labels=none --json --cache-dir=" + cache_dir +
                           " ";
  std::string cold = base + "--metrics-out=" + cold_metrics + " " + log1 +
                     " " + log2 + " > " + cold_out;
  ASSERT_EQ(std::system(cold.c_str()), 0) << cold;
  std::string warm = base + "--metrics-out=" + warm_metrics + " " + log1 +
                     " " + log2 + " > " + warm_out;
  ASSERT_EQ(std::system(warm.c_str()), 0) << warm;

  const std::string cold_report = ReadFile(cold_metrics);
  ASSERT_FALSE(cold_report.empty());
  EXPECT_TRUE(BalancedJson(cold_report));
  EXPECT_NE(cold_report.find("\"store.misses\":2"), std::string::npos);
  EXPECT_NE(cold_report.find("\"store.writes\":2"), std::string::npos);
  EXPECT_NE(cold_report.find("\"store.bytes_written\""), std::string::npos);

  const std::string warm_report = ReadFile(warm_metrics);
  ASSERT_FALSE(warm_report.empty());
  EXPECT_TRUE(BalancedJson(warm_report));
  EXPECT_NE(warm_report.find("\"store.hits\":2"), std::string::npos);
  EXPECT_NE(warm_report.find("\"store.bytes_read\""), std::string::npos);
  EXPECT_EQ(warm_report.find("\"store.fallback_rederives\":"),
            warm_report.find("\"store.fallback_rederives\":0"));

  // Snapshot-loaded logs drive the exact same matching.
  const std::string cold_result = ReadFile(cold_out);
  ASSERT_FALSE(cold_result.empty());
  EXPECT_EQ(ReadFile(warm_out), cold_result);

  std::system(("rm -rf " + cache_dir).c_str());
  for (const std::string& f :
       {log1, log2, cold_metrics, warm_metrics, cold_out, warm_out}) {
    std::remove(f.c_str());
  }
}

TEST(MetricsExportTest, CompositeModeExportsCompositeCounters) {
  const std::string dir = TempDir();
  const std::string log1 = dir + "/metrics_export_comp1.txt";
  const std::string log2 = dir + "/metrics_export_comp2.txt";
  const std::string metrics = dir + "/metrics_export_comp.json";
  WriteFile(log1, "a;b;c;d\na;b;c;d\na;c;d\n");
  WriteFile(log2, "a;x;d\na;x;d\na;d\n");

  std::string cmd = std::string(EMS_MATCH_BINARY) + " --labels=qgram" +
                    " --composites --threads=4 --metrics-out=" + metrics +
                    " " + log1 + " " + log2 + " > /dev/null";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;

  std::string report = ReadFile(metrics);
  ASSERT_FALSE(report.empty());
  EXPECT_TRUE(BalancedJson(report));
  EXPECT_NE(report.find("\"composite_search\""), std::string::npos);
  EXPECT_NE(report.find("\"candidate_discovery\""), std::string::npos);
  EXPECT_NE(report.find("\"composite.candidates_evaluated\""),
            std::string::npos);
  // The initial evaluation builds both graphs and each candidate the
  // side it changes; the search's builds are the only ones.
  const long long evaluated =
      CounterValue(report, "composite.candidates_evaluated");
  ASSERT_GT(evaluated, 0);
  EXPECT_EQ(CounterValue(report, "graph.builds"), 2 + evaluated);
  EXPECT_EQ(report.find("graph.incremental_"), std::string::npos);
  EXPECT_NE(report.find("\"composite.candidates_evaluated_parallel\""),
            std::string::npos);
  EXPECT_NE(report.find("\"composite.candidate_eval_millis\""),
            std::string::npos);

  std::remove(log1.c_str());
  std::remove(log2.c_str());
  std::remove(metrics.c_str());
}

}  // namespace
}  // namespace ems
