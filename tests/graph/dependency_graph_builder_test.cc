// Pins DependencyGraphBuilder::BuildWithComposites bit-identical to the
// trace-scan reference (DependencyGraph::BuildWithComposites) — node
// order, names, members, every frequency double, and the artificial
// event — across synthetic, CSV, and XES logs, composite shapes, and
// graph options. The composite search relies on this equivalence to swap
// the builder in without changing any result.
#include "graph/dependency_graph_builder.h"

#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "graph/dependency_graph.h"
#include "log/log_io.h"
#include "log/xes.h"
#include "synth/dataset.h"

namespace ems {
namespace {

// Exact (bitwise, via EXPECT_EQ on doubles) structural equality.
void ExpectGraphsIdentical(const DependencyGraph& ref,
                           const DependencyGraph& got) {
  ASSERT_EQ(ref.NumNodes(), got.NumNodes());
  EXPECT_EQ(ref.has_artificial(), got.has_artificial());
  EXPECT_EQ(ref.NumEdges(), got.NumEdges());
  for (NodeId v = 0; v < static_cast<NodeId>(ref.NumNodes()); ++v) {
    EXPECT_EQ(ref.NodeName(v), got.NodeName(v)) << "node " << v;
    EXPECT_EQ(ref.NodeFrequency(v), got.NodeFrequency(v)) << "node " << v;
    EXPECT_EQ(ref.Members(v), got.Members(v)) << "node " << v;
    ASSERT_EQ(ref.Successors(v), got.Successors(v)) << "node " << v;
    EXPECT_EQ(ref.SuccessorFrequencies(v), got.SuccessorFrequencies(v))
        << "node " << v;
    ASSERT_EQ(ref.Predecessors(v), got.Predecessors(v)) << "node " << v;
    EXPECT_EQ(ref.PredecessorFrequencies(v), got.PredecessorFrequencies(v))
        << "node " << v;
  }
}

void ExpectBuilderMatchesReference(
    const EventLog& log, const std::vector<std::vector<EventId>>& composites,
    const DependencyGraphOptions& options = {}) {
  Result<DependencyGraph> ref =
      DependencyGraph::BuildWithComposites(log, composites, options);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  DependencyGraphBuilder builder(log);
  Result<DependencyGraph> got =
      builder.BuildWithComposites(composites, options);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectGraphsIdentical(*ref, *got);
}

EventLog SmallLog() {
  EventLog log;
  log.AddTrace({"a", "b", "c", "d"});
  log.AddTrace({"a", "c", "b", "d"});
  log.AddTrace({"a", "b", "b", "d"});  // repeated singleton event
  log.AddTrace({"a", "b", "c", "d"});  // duplicate trace (multiplicity)
  log.AddTrace({"b", "c"});
  return log;
}

TEST(DependencyGraphBuilderTest, NoCompositesMatchesReference) {
  ExpectBuilderMatchesReference(SmallLog(), {});
}

TEST(DependencyGraphBuilderTest, SingleCompositeMatchesReference) {
  EventLog log = SmallLog();
  EventId b = log.FindEvent("b");
  EventId c = log.FindEvent("c");
  ExpectBuilderMatchesReference(log, {{b, c}});
  // Unsorted member order must be preserved in Members() on both paths.
  ExpectBuilderMatchesReference(log, {{c, b}});
}

TEST(DependencyGraphBuilderTest, MultipleAndSingletonComposites) {
  EventLog log = SmallLog();
  EventId a = log.FindEvent("a");
  EventId b = log.FindEvent("b");
  EventId c = log.FindEvent("c");
  EventId d = log.FindEvent("d");
  ExpectBuilderMatchesReference(log, {{b, c}, {a, d}});
  // A singleton composite renames nothing but goes through the rewrite.
  ExpectBuilderMatchesReference(log, {{b}});
  ExpectBuilderMatchesReference(log, {{a}, {c, d}});
}

TEST(DependencyGraphBuilderTest, GraphOptionsMatchReference) {
  EventLog log = SmallLog();
  EventId b = log.FindEvent("b");
  EventId c = log.FindEvent("c");

  DependencyGraphOptions min_freq;
  min_freq.min_edge_frequency = 0.3;
  ExpectBuilderMatchesReference(log, {{b, c}}, min_freq);

  DependencyGraphOptions no_artificial;
  no_artificial.add_artificial_event = false;
  ExpectBuilderMatchesReference(log, {{b, c}}, no_artificial);
}

TEST(DependencyGraphBuilderTest, CsvLogMatchesReference) {
  std::istringstream in(
      "case,activity\n"
      "1,receive\n1,check\n1,ship\n"
      "2,receive\n2,ship\n2,check\n"
      "3,receive\n3,check\n3,check\n3,ship\n");
  Result<EventLog> log = ReadCsv(in);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  EventId check = log->FindEvent("check");
  EventId ship = log->FindEvent("ship");
  ExpectBuilderMatchesReference(*log, {});
  ExpectBuilderMatchesReference(*log, {{check, ship}});
}

TEST(DependencyGraphBuilderTest, XesLogMatchesReference) {
  std::istringstream in(
      "<?xml version=\"1.0\"?>\n"
      "<log>\n"
      "  <trace>\n"
      "    <event><string key=\"concept:name\" value=\"a\"/></event>\n"
      "    <event><string key=\"concept:name\" value=\"b\"/></event>\n"
      "    <event><string key=\"concept:name\" value=\"c\"/></event>\n"
      "  </trace>\n"
      "  <trace>\n"
      "    <event><string key=\"concept:name\" value=\"a\"/></event>\n"
      "    <event><string key=\"concept:name\" value=\"c\"/></event>\n"
      "    <event><string key=\"concept:name\" value=\"b\"/></event>\n"
      "  </trace>\n"
      "</log>\n");
  Result<EventLog> log = ReadXes(in);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  EventId b = log->FindEvent("b");
  EventId c = log->FindEvent("c");
  ExpectBuilderMatchesReference(*log, {{b, c}});
}

TEST(DependencyGraphBuilderTest, SyntheticPairMatchesReference) {
  PairOptions opts;
  opts.num_activities = 12;
  opts.num_traces = 60;
  opts.num_composites = 2;
  opts.seed = 7;
  LogPair pair = MakeLogPair(Testbed::kDsFB, opts);
  for (const EventLog* log : {&pair.log1, &pair.log2}) {
    ExpectBuilderMatchesReference(*log, {});
    // Collapse the first few events pairwise.
    if (log->NumEvents() >= 4) {
      ExpectBuilderMatchesReference(*log, {{0, 1}, {2, 3}});
      ExpectBuilderMatchesReference(*log, {{1, 3, 0}});
    }
  }
}

TEST(DependencyGraphBuilderTest, PlusInNameFallsBackToReference) {
  EventLog log;
  log.AddTrace({"a+b", "c", "d"});
  log.AddTrace({"a+b", "d", "c"});
  EventId c = log.FindEvent("c");
  EventId d = log.FindEvent("d");
  DependencyGraphBuilder builder(log);
  Result<DependencyGraph> got = builder.BuildWithComposites({{c, d}});
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  Result<DependencyGraph> ref =
      DependencyGraph::BuildWithComposites(log, {{c, d}});
  ASSERT_TRUE(ref.ok());
  ExpectGraphsIdentical(*ref, *got);
  EXPECT_EQ(builder.fallback_builds(), 1u);
  EXPECT_EQ(builder.incremental_builds(), 0u);
}

TEST(DependencyGraphBuilderTest, ErrorStatusesMatchReference) {
  EventLog log = SmallLog();
  DependencyGraphBuilder builder(log);
  struct Case {
    std::vector<std::vector<EventId>> composites;
  };
  const Case cases[] = {
      {{{}}},                 // empty composite
      {{{0, 99}}},            // invalid event id
      {{{0, 1}, {1, 2}}},     // overlap on event
  };
  for (const Case& c : cases) {
    Result<DependencyGraph> ref =
        DependencyGraph::BuildWithComposites(log, c.composites);
    Result<DependencyGraph> got = builder.BuildWithComposites(c.composites);
    ASSERT_FALSE(ref.ok());
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(ref.status().ToString(), got.status().ToString());
  }
}

TEST(DependencyGraphBuilderTest, CountsBuildsAndGroups) {
  EventLog log = SmallLog();
  DependencyGraphBuilder builder(log);
  EXPECT_EQ(builder.num_traces(), 5u);
  // The two identical traces share one group.
  EXPECT_EQ(builder.num_trace_groups(), 4u);
  ASSERT_TRUE(builder.BuildWithComposites({}).ok());
  ASSERT_TRUE(builder.BuildWithComposites({{0, 1}}).ok());
  EXPECT_EQ(builder.incremental_builds(), 2u);
  EXPECT_EQ(builder.fallback_builds(), 0u);
}

TEST(DependencyGraphBuilderTest, ConcurrentBuildsAreIdentical) {
  EventLog log = SmallLog();
  EventId b = log.FindEvent("b");
  EventId c = log.FindEvent("c");
  const DependencyGraphBuilder builder(log);
  Result<DependencyGraph> ref = builder.BuildWithComposites({{b, c}});
  ASSERT_TRUE(ref.ok());

  constexpr int kThreads = 4;
  std::vector<std::optional<Result<DependencyGraph>>> results(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      results[static_cast<size_t>(i)].emplace(
          builder.BuildWithComposites({{b, c}}));
    });
  }
  for (std::thread& t : threads) t.join();
  for (const auto& r : results) {
    ASSERT_TRUE(r.has_value());
    ASSERT_TRUE(r->ok());
    ExpectGraphsIdentical(*ref, **r);
  }
}

}  // namespace
}  // namespace ems
