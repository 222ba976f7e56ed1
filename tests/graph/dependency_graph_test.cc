#include "graph/dependency_graph.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "paper_example.h"

namespace ems {
namespace {

EventLog SimpleLog() {
  EventLog log;
  // 5 traces: a b c (x3), a c (x1), b c (x1)
  log.AddTrace({"a", "b", "c"});
  log.AddTrace({"a", "b", "c"});
  log.AddTrace({"a", "b", "c"});
  log.AddTrace({"a", "c"});
  log.AddTrace({"b", "c"});
  return log;
}

TEST(DependencyGraphTest, BuildWithoutArtificial) {
  EventLog log = SimpleLog();
  DependencyGraphOptions opts;
  opts.add_artificial_event = false;
  DependencyGraph g = DependencyGraph::Build(log, opts);
  EXPECT_FALSE(g.has_artificial());
  EXPECT_EQ(g.NumNodes(), 3u);
  NodeId a = 0, b = 1, c = 2;
  EXPECT_DOUBLE_EQ(g.NodeFrequency(a), 0.8);
  EXPECT_DOUBLE_EQ(g.NodeFrequency(b), 0.8);
  EXPECT_DOUBLE_EQ(g.NodeFrequency(c), 1.0);
  EXPECT_DOUBLE_EQ(g.EdgeFrequency(a, b), 0.6);
  EXPECT_DOUBLE_EQ(g.EdgeFrequency(b, c), 0.8);
  EXPECT_DOUBLE_EQ(g.EdgeFrequency(a, c), 0.2);
  EXPECT_FALSE(g.HasEdge(c, a));
}

TEST(DependencyGraphTest, ArtificialNodeConnectsEverything) {
  EventLog log = SimpleLog();
  DependencyGraph g = DependencyGraph::Build(log);
  ASSERT_TRUE(g.has_artificial());
  EXPECT_EQ(g.artificial_node(), 0);
  EXPECT_EQ(g.NumNodes(), 4u);
  for (NodeId v = 1; v < 4; ++v) {
    EXPECT_TRUE(g.HasEdge(0, v));
    EXPECT_TRUE(g.HasEdge(v, 0));
    // Artificial edge weight equals the node frequency (Section 2).
    EXPECT_DOUBLE_EQ(g.EdgeFrequency(0, v), g.NodeFrequency(v));
    EXPECT_DOUBLE_EQ(g.EdgeFrequency(v, 0), g.NodeFrequency(v));
  }
}

TEST(DependencyGraphTest, PreAndPostSets) {
  EventLog log = SimpleLog();
  DependencyGraphOptions opts;
  opts.add_artificial_event = false;
  DependencyGraph g = DependencyGraph::Build(log, opts);
  // c's predecessors: a and b.
  auto preds = g.Predecessors(2);
  std::sort(preds.begin(), preds.end());
  EXPECT_EQ(preds, (std::vector<NodeId>{0, 1}));
  EXPECT_TRUE(g.Successors(2).empty());
}

TEST(DependencyGraphTest, MinEdgeFrequencyFilters) {
  EventLog log = SimpleLog();
  DependencyGraphOptions opts;
  opts.min_edge_frequency = 0.5;
  DependencyGraph g = DependencyGraph::Build(log, opts);
  // a->c (0.2) filtered; a->b (0.6) and b->c (0.8) kept.
  NodeId a = 1, b = 2, c = 3;  // shifted by artificial node
  EXPECT_FALSE(g.HasEdge(a, c));
  EXPECT_TRUE(g.HasEdge(a, b));
  EXPECT_TRUE(g.HasEdge(b, c));
  // Artificial edges survive regardless of frequency.
  EXPECT_TRUE(g.HasEdge(0, a));
}

TEST(DependencyGraphTest, SelfLoopsAreNotEdges) {
  EventLog log;
  log.AddTrace({"a", "a", "b"});
  DependencyGraphOptions opts;
  opts.add_artificial_event = false;
  DependencyGraph g = DependencyGraph::Build(log, opts);
  EXPECT_FALSE(g.HasEdge(0, 0));  // f(v, v) is the node frequency
  EXPECT_TRUE(g.HasEdge(0, 1));
}

TEST(DependencyGraphTest, LongestDistancesOnPaperGraph) {
  DependencyGraph g1 = testing::BuildPaperGraph1();
  const auto& l = g1.LongestDistancesFromArtificial();
  // Node ids shift by 1 for the artificial node.
  EXPECT_EQ(l[0], 0);                            // v^X itself
  EXPECT_EQ(l[1 + testing::A], 1);               // source: only v^X precedes
  EXPECT_EQ(l[1 + testing::B], 1);
  EXPECT_EQ(l[1 + testing::C], 2);               // Example 5
  EXPECT_EQ(l[1 + testing::D], 3);               // Example 5
  // E and F form a 2-cycle (concurrent play-out): no early convergence.
  EXPECT_EQ(l[1 + testing::E], kInfiniteDistance);
  EXPECT_EQ(l[1 + testing::F], kInfiniteDistance);
}

TEST(DependencyGraphTest, LongestDistancesOnDagGraph2) {
  DependencyGraph g2 = testing::BuildPaperGraph2();
  const auto& l = g2.LongestDistancesFromArtificial();
  EXPECT_EQ(l[1 + testing::N1], 1);
  EXPECT_EQ(l[1 + testing::N2], 2);
  EXPECT_EQ(l[1 + testing::N3], 2);
  EXPECT_EQ(l[1 + testing::N4], 3);
  EXPECT_EQ(l[1 + testing::N5], 4);
  EXPECT_EQ(l[1 + testing::N6], 5);
}

TEST(DependencyGraphTest, BackwardLongestDistances) {
  DependencyGraph g2 = testing::BuildPaperGraph2();
  const auto& l = g2.LongestDistancesToArtificial();
  EXPECT_EQ(l[1 + testing::N6], 1);  // sink: only v^X follows
  EXPECT_EQ(l[1 + testing::N5], 2);
  EXPECT_EQ(l[1 + testing::N4], 3);
  EXPECT_EQ(l[1 + testing::N2], 4);
  EXPECT_EQ(l[1 + testing::N1], 5);
}

TEST(DependencyGraphTest, AncestorsAndDescendants) {
  DependencyGraph g2 = testing::BuildPaperGraph2();
  auto anc = g2.Ancestors(1 + testing::N4);
  std::sort(anc.begin(), anc.end());
  EXPECT_EQ(anc, (std::vector<NodeId>{1 + testing::N1, 1 + testing::N2,
                                      1 + testing::N3}));
  auto desc = g2.Descendants(1 + testing::N4);
  std::sort(desc.begin(), desc.end());
  EXPECT_EQ(desc, (std::vector<NodeId>{1 + testing::N5, 1 + testing::N6}));
  // The artificial node never appears in ancestor sets.
  for (NodeId v : g2.Ancestors(1 + testing::N6)) {
    EXPECT_FALSE(g2.IsArtificial(v));
  }
}

TEST(DependencyGraphTest, AverageDegreeCountsAllEdges) {
  DependencyGraphOptions opts;
  opts.add_artificial_event = false;
  EventLog log = SimpleLog();
  DependencyGraph g = DependencyGraph::Build(log, opts);
  // Edges: a->b, b->c, a->c => 3 edges / 3 nodes.
  EXPECT_DOUBLE_EQ(g.AverageDegree(), 1.0);
}

TEST(DependencyGraphTest, DebugStringMentionsNodes) {
  DependencyGraph g = testing::BuildPaperGraph1();
  std::string s = g.DebugString();
  EXPECT_NE(s.find("PaidCash"), std::string::npos);
  EXPECT_NE(s.find("<X>"), std::string::npos);
}

}  // namespace
}  // namespace ems
