#include "graph/streaming_graph.h"

#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "graph/dependency_graph.h"
#include "log/event_log.h"

namespace ems {
namespace {

uint64_t Bits(double d) { return std::bit_cast<uint64_t>(d); }

// Bit-exact structural equality: node order, names, members, both
// adjacency directions with neighbor order, and every frequency double.
void ExpectGraphsIdentical(const DependencyGraph& got,
                           const DependencyGraph& want) {
  ASSERT_EQ(got.NumNodes(), want.NumNodes());
  ASSERT_EQ(got.has_artificial(), want.has_artificial());
  ASSERT_EQ(got.NumEdges(), want.NumEdges());
  for (NodeId v = 0; v < static_cast<NodeId>(want.NumNodes()); ++v) {
    EXPECT_EQ(got.NodeName(v), want.NodeName(v)) << "node " << v;
    EXPECT_EQ(Bits(got.NodeFrequency(v)), Bits(want.NodeFrequency(v)))
        << "freq of node " << v;
    EXPECT_EQ(got.Members(v), want.Members(v)) << "members of node " << v;
    ASSERT_EQ(got.Successors(v), want.Successors(v)) << "post of node " << v;
    ASSERT_EQ(got.Predecessors(v), want.Predecessors(v))
        << "pre of node " << v;
    const auto& gsf = got.SuccessorFrequencies(v);
    const auto& wsf = want.SuccessorFrequencies(v);
    ASSERT_EQ(gsf.size(), wsf.size());
    for (size_t i = 0; i < wsf.size(); ++i) {
      EXPECT_EQ(Bits(gsf[i]), Bits(wsf[i]))
          << "post freq " << v << "[" << i << "]";
    }
    const auto& gpf = got.PredecessorFrequencies(v);
    const auto& wpf = want.PredecessorFrequencies(v);
    ASSERT_EQ(gpf.size(), wpf.size());
    for (size_t i = 0; i < wpf.size(); ++i) {
      EXPECT_EQ(Bits(gpf[i]), Bits(wpf[i]))
          << "pre freq " << v << "[" << i << "]";
    }
  }
}

void ExpectDistancesIdentical(const DependencyGraph& got,
                              const DependencyGraph& want) {
  EXPECT_EQ(got.LongestDistancesFromArtificial(),
            want.LongestDistancesFromArtificial());
  EXPECT_EQ(got.LongestDistancesToArtificial(),
            want.LongestDistancesToArtificial());
}

EventLog BaseLog() {
  EventLog log;
  log.AddTrace({"a", "b", "c"});
  log.AddTrace({"a", "b", "c"});
  log.AddTrace({"a", "c"});
  log.AddTrace({"b", "c"});
  return log;
}

TEST(StreamingGraphTest, AppendMatchesRebuild) {
  EventLog log = BaseLog();
  StreamingDependencyGraph stream(log);
  AppendDelta delta =
      log.AppendTraces({{"a", "b", "c"}, {"b", "a"}, {"a", "c", "b"}});
  StreamingGraphStats stats = stream.ApplyAppend(delta.first_new_trace);
  EXPECT_EQ(stats.appended_traces, 3u);
  EXPECT_EQ(stats.new_nodes, 0u);
  EXPECT_GT(stats.added_edges, 0u);  // (b, a) and (c, b) are new pairs

  DependencyGraph rebuilt = DependencyGraph::Build(log);
  ExpectGraphsIdentical(stream.graph(), rebuilt);
  ExpectDistancesIdentical(stream.graph(), rebuilt);
}

TEST(StreamingGraphTest, AppendExtendsVocabularyInPlace) {
  EventLog log = BaseLog();
  StreamingDependencyGraph stream(log);
  const size_t old_nodes = stream.graph().NumNodes();
  AppendDelta delta = log.AppendTraces({{"a", "d", "e"}, {"e", "c"}});
  EXPECT_EQ(delta.new_events, 2u);
  StreamingGraphStats stats = stream.ApplyAppend(delta.first_new_trace);
  EXPECT_EQ(stats.new_nodes, 2u);

  // Existing NodeIds are a strict prefix of the extended graph.
  ASSERT_EQ(stream.graph().NumNodes(), old_nodes + 2);
  EXPECT_EQ(stream.graph().NodeName(static_cast<NodeId>(old_nodes)), "d");
  EXPECT_EQ(stream.graph().NodeName(static_cast<NodeId>(old_nodes + 1)),
            "e");
  ExpectGraphsIdentical(stream.graph(), DependencyGraph::Build(log));
}

TEST(StreamingGraphTest, StructuralDeltaCountsOnlyChangedDistanceRows) {
  EventLog log = BaseLog();
  StreamingDependencyGraph stream(log);
  stream.graph().LongestDistancesFromArtificial();
  stream.graph().LongestDistancesToArtificial();

  // A batch that only touches c's out-neighborhood: the caches are
  // recomputed, and only the rows whose value changed are counted.
  AppendDelta delta = log.AppendTraces({{"c", "d"}});
  StreamingGraphStats stats = stream.ApplyAppend(delta.first_new_trace);
  // Forward direction: only the new node d is downstream of the new
  // edge; backward direction: c and everything upstream of it.
  EXPECT_GT(stats.distance_rows_invalidated, 0u);
  EXPECT_LT(stats.distance_rows_invalidated,
            2 * stream.graph().NumNodes());
  // d's new forward row, and d, c, b and a toward v^X.
  EXPECT_EQ(stats.distance_rows_invalidated, 5u);

  DependencyGraph rebuilt = DependencyGraph::Build(log);
  ExpectGraphsIdentical(stream.graph(), rebuilt);
  ExpectDistancesIdentical(stream.graph(), rebuilt);
}

TEST(StreamingGraphTest, PurelyNumericDeltaLeavesDistancesUntouched) {
  EventLog log = BaseLog();
  StreamingDependencyGraph stream(log);
  stream.graph().LongestDistancesFromArtificial();
  stream.graph().LongestDistancesToArtificial();
  // A repeat of an existing trace adds no edges and no nodes — only the
  // normalization denominator changes.
  AppendDelta delta = log.AppendTraces({{"a", "b", "c"}});
  StreamingGraphStats stats = stream.ApplyAppend(delta.first_new_trace);
  EXPECT_EQ(stats.added_edges, 0u);
  EXPECT_EQ(stats.removed_edges, 0u);
  EXPECT_EQ(stats.distance_rows_invalidated, 0u);

  DependencyGraph rebuilt = DependencyGraph::Build(log);
  ExpectGraphsIdentical(stream.graph(), rebuilt);
  ExpectDistancesIdentical(stream.graph(), rebuilt);
}

TEST(StreamingGraphTest, CycleCreationTurnsDistancesInfinite) {
  EventLog log = BaseLog();
  StreamingDependencyGraph stream(log);
  stream.graph().LongestDistancesFromArtificial();
  stream.graph().LongestDistancesToArtificial();

  // b -> a closes a cycle with a -> b: a, b, and their downstream become
  // infinite-horizon nodes.
  AppendDelta delta = log.AppendTraces({{"b", "a"}});
  stream.ApplyAppend(delta.first_new_trace);

  DependencyGraph rebuilt = DependencyGraph::Build(log);
  ExpectGraphsIdentical(stream.graph(), rebuilt);
  ExpectDistancesIdentical(stream.graph(), rebuilt);
  const auto& fwd = stream.graph().LongestDistancesFromArtificial();
  EXPECT_EQ(fwd[1], kInfiniteDistance);  // a
  EXPECT_EQ(fwd[2], kInfiniteDistance);  // b
}

TEST(StreamingGraphTest, ThresholdCrossingRemovesDilutedEdges) {
  EventLog log = BaseLog();  // f(a, c) = 1/4 initially
  DependencyGraphOptions opts;
  opts.min_edge_frequency = 0.2;
  StreamingDependencyGraph stream(log, opts);
  ASSERT_TRUE(stream.graph().HasEdge(1, 3));  // a -> c at 0.25

  // Appends without (a, c) dilute it below the 0.2 threshold.
  AppendDelta delta =
      log.AppendTraces({{"a", "b"}, {"a", "b"}, {"a", "b"}});
  StreamingGraphStats stats = stream.ApplyAppend(delta.first_new_trace);
  EXPECT_GT(stats.removed_edges, 0u);
  EXPECT_FALSE(stream.graph().HasEdge(1, 3));

  DependencyGraph rebuilt = DependencyGraph::Build(log, opts);
  ExpectGraphsIdentical(stream.graph(), rebuilt);
  ExpectDistancesIdentical(stream.graph(), rebuilt);
}

TEST(StreamingGraphTest, ThresholdCanBreakCyclesAndRestoreFiniteness) {
  EventLog log;
  log.AddTrace({"a", "b"});
  log.AddTrace({"b", "a"});  // cycle a <-> b
  DependencyGraphOptions opts;
  opts.min_edge_frequency = 0.3;
  StreamingDependencyGraph stream(log, opts);
  stream.graph().LongestDistancesFromArtificial();
  stream.graph().LongestDistancesToArtificial();
  ASSERT_EQ(stream.graph().LongestDistancesFromArtificial()[1],
            kInfiniteDistance);

  // Dilute (b, a) below threshold: the cycle breaks, distances become
  // finite again — the restricted recompute must flip rows back.
  AppendDelta delta = log.AppendTraces(
      {{"a", "b"}, {"a", "b"}, {"a", "b"}, {"a", "b"}});
  stream.ApplyAppend(delta.first_new_trace);

  DependencyGraph rebuilt = DependencyGraph::Build(log, opts);
  ExpectGraphsIdentical(stream.graph(), rebuilt);
  ExpectDistancesIdentical(stream.graph(), rebuilt);
  EXPECT_NE(stream.graph().LongestDistancesFromArtificial()[1],
            kInfiniteDistance);
}

TEST(StreamingGraphTest, SequentialAppendsStayIdentical) {
  EventLog log = BaseLog();
  StreamingDependencyGraph stream(log);
  stream.graph().LongestDistancesFromArtificial();
  stream.graph().LongestDistancesToArtificial();
  const std::vector<std::vector<std::vector<std::string>>> batches = {
      {{"a", "b", "c"}, {"c", "a"}},
      {{"d"}},  // single-event trace: node without real edges
      {{"d", "a", "d"}, {"b", "b", "c"}},
      {{"e", "d", "c", "b", "a"}},
  };
  for (const auto& batch : batches) {
    AppendDelta delta = log.AppendTraces(batch);
    stream.ApplyAppend(delta.first_new_trace);
    DependencyGraph rebuilt = DependencyGraph::Build(log);
    ExpectGraphsIdentical(stream.graph(), rebuilt);
    ExpectDistancesIdentical(stream.graph(), rebuilt);
  }
}

TEST(StreamingGraphTest, WorksWithoutArtificialNode) {
  EventLog log = BaseLog();
  DependencyGraphOptions opts;
  opts.add_artificial_event = false;
  StreamingDependencyGraph stream(log, opts);
  AppendDelta delta = log.AppendTraces({{"c", "d"}, {"d", "a"}});
  stream.ApplyAppend(delta.first_new_trace);
  ExpectGraphsIdentical(stream.graph(), DependencyGraph::Build(log, opts));
}

TEST(StreamingGraphTest, CoalescedBatchesFoldOnce) {
  EventLog log = BaseLog();
  StreamingDependencyGraph stream(log);
  AppendDelta d1 = log.AppendTraces({{"a", "d"}});
  log.AppendTraces({{"d", "c"}});
  StreamingGraphStats stats = stream.ApplyAppend(d1.first_new_trace);
  EXPECT_EQ(stats.appended_traces, 2u);
  ExpectGraphsIdentical(stream.graph(), DependencyGraph::Build(log));
}

}  // namespace
}  // namespace ems
