#include "graph/dot_export.h"

#include <sstream>

#include <gtest/gtest.h>

#include "paper_example.h"

namespace ems {
namespace {

size_t CountCrossEdges(const std::string& dot) {
  size_t cross = 0;
  for (size_t pos = 0; (pos = dot.find("color=red", pos)) != std::string::npos;
       ++pos) {
    ++cross;
  }
  return cross;
}

TEST(DotExportTest, ContainsNodesAndEdges) {
  DependencyGraph g = testing::BuildPaperGraph1();
  std::string dot = ToDot(g);
  EXPECT_NE(dot.find("digraph dependency_graph"), std::string::npos);
  EXPECT_NE(dot.find("PaidCash"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
  // Artificial node hidden by default.
  EXPECT_EQ(dot.find("<X>"), std::string::npos);
}

TEST(DotExportTest, ShowArtificialOption) {
  DependencyGraph g = testing::BuildPaperGraph1();
  DotOptions opts;
  opts.show_artificial = true;
  std::string dot = ToDot(g, opts);
  EXPECT_NE(dot.find("diamond"), std::string::npos);
}

TEST(DotExportTest, EdgeFrequenciesToggle) {
  DependencyGraph g = testing::BuildPaperGraph1();
  DotOptions no_freq;
  no_freq.edge_frequencies = false;
  std::string dot = ToDot(g, no_freq);
  // Edge lines exist but carry no label attribute.
  EXPECT_NE(dot.find("->"), std::string::npos);
  EXPECT_EQ(dot.find("label=\"0."), std::string::npos);
}

TEST(DotExportTest, QuotesEscaped) {
  EventLog log;
  log.AddTrace({"say \"hi\"", "done"});
  DependencyGraph g = DependencyGraph::Build(log);
  std::string dot = ToDot(g);
  EXPECT_NE(dot.find("\\\"hi\\\""), std::string::npos);
}

TEST(DotExportTest, MatchDotLinksCorrespondences) {
  EventLog log1 = testing::BuildPaperLog1();
  EventLog log2 = testing::BuildPaperLog2();
  Matcher matcher;
  Result<MatchResult> result = matcher.Match(log1, log2);
  ASSERT_TRUE(result.ok());
  std::ostringstream out;
  ASSERT_TRUE(WriteMatchDot(*result, out).ok());
  std::string dot = out.str();
  EXPECT_NE(dot.find("cluster_left"), std::string::npos);
  EXPECT_NE(dot.find("cluster_right"), std::string::npos);
  EXPECT_NE(dot.find("color=red"), std::string::npos);
  // One cross edge per correspondence.
  EXPECT_EQ(CountCrossEdges(dot), result->correspondences.size());
}

// A singleton event whose own name contains '+' still gets its cross
// edge: nodes resolve by members, not by splitting display names.
TEST(DotExportTest, MatchDotLinksEventNamedWithPlus) {
  EventLog log1;
  log1.AddTrace({"receive", "ship+pack", "bill"});
  log1.AddTrace({"receive", "ship+pack", "bill"});
  EventLog log2;
  log2.AddTrace({"receive", "ship+pack", "bill"});
  log2.AddTrace({"receive", "ship+pack", "bill"});
  Matcher matcher;
  Result<MatchResult> result = matcher.Match(log1, log2);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->correspondences.size(), 3u);
  std::ostringstream out;
  ASSERT_TRUE(WriteMatchDot(*result, out).ok());
  EXPECT_EQ(CountCrossEdges(out.str()), 3u);
}

}  // namespace
}  // namespace ems
