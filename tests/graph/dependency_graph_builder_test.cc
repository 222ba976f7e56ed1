// Pins DependencyGraphBuilder::BuildWithComposites to the test-only
// string-rewriting trace scan (tests/log/trace_count_reference.h) byte
// for byte — node order, names, members, every frequency's bits and both
// adjacency lists — across synthetic, CSV and XES logs, composite
// families the candidate discovery proposes, and graph options. Where an
// event's own name equals a composite's joined name the two differ by
// design: the builder resolves nodes by id and keeps both.
#include "graph/dependency_graph_builder.h"

#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/composite_candidates.h"
#include "graph/dependency_graph.h"
#include "log/log_io.h"
#include "log/trace_count_reference.h"
#include "log/xes.h"
#include "synth/dataset.h"
#include "util/random.h"

namespace ems {
namespace {

using testing::BuildWithCompositesByTraceScan;
using testing::RewrittenGraph;
using testing::TraceScanDifference;

void ExpectBuilderMatchesReference(
    const EventLog& log, const std::vector<std::vector<EventId>>& composites,
    const DependencyGraphOptions& options = {}) {
  DependencyGraphBuilder builder(log);
  Result<DependencyGraph> got =
      builder.BuildWithComposites(composites, options);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(TraceScanDifference(*got, log, composites, options), "");
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

TEST(DependencyGraphBuilderTest, CollapsesRuns) {
  EventLog log;
  log.AddTrace({"a", "c", "d", "b"});
  log.AddTrace({"a", "c", "d", "b"});
  EventId c = log.FindEvent("c");
  EventId d = log.FindEvent("d");
  Result<DependencyGraph> g = DependencyGraphBuilder(log).BuildWithComposites(
      {{d, c}});
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  // 4 original events -> 3 nodes (+ artificial); the composite comes first
  // and keeps its members in the order given.
  ASSERT_EQ(g->NumNodes(), 4u);
  EXPECT_EQ(g->NodeName(1), "c+d");
  EXPECT_EQ(g->Members(1), (std::vector<EventId>{d, c}));
  EXPECT_DOUBLE_EQ(g->NodeFrequency(1), 1.0);
  EXPECT_EQ(g->NodeName(2), "a");
  EXPECT_EQ(g->NodeName(3), "b");
  EXPECT_TRUE(g->HasEdge(2, 1));
  EXPECT_TRUE(g->HasEdge(1, 3));
}

// A '+' in an event name is just a character: the composite {c, d} is
// named "c+d", which aliases nothing, so the rewrite agrees.
TEST(DependencyGraphBuilderTest, PlusInNameMatchesReference) {
  EventLog log;
  log.AddTrace({"a+b", "c", "d"});
  log.AddTrace({"a+b", "d", "c"});
  EventId c = log.FindEvent("c");
  EventId d = log.FindEvent("d");
  ExpectBuilderMatchesReference(log, {});
  ExpectBuilderMatchesReference(log, {{c, d}});
  ExpectBuilderMatchesReference(log, {{d, log.FindEvent("a+b")}});
}

// An event named "a+b" keeps its own node next to the composite {a, b}:
// two nodes share the display name, told apart by their members. The
// string rewrite merged them into one node at f = 1.0.
TEST(DependencyGraphBuilderTest, EventNamedLikeCompositeKeepsItsNode) {
  EventLog log;
  log.AddTrace({"a", "b", "c"});
  log.AddTrace({"a+b", "c"});
  EventId a = log.FindEvent("a");
  EventId b = log.FindEvent("b");
  EventId ab = log.FindEvent("a+b");
  EventId c = log.FindEvent("c");
  Result<DependencyGraph> g =
      DependencyGraphBuilder(log).BuildWithComposites({{a, b}});
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  ASSERT_EQ(g->NumNodes(), 4u);  // v^X, {a, b}, c, "a+b"
  EXPECT_EQ(g->NodeName(1), "a+b");
  EXPECT_EQ(g->Members(1), (std::vector<EventId>{a, b}));
  EXPECT_EQ(g->NodeFrequency(1), 0.5);
  EXPECT_EQ(g->NodeName(2), "c");
  EXPECT_EQ(g->Members(2), (std::vector<EventId>{c}));
  EXPECT_EQ(g->NodeFrequency(2), 1.0);
  EXPECT_EQ(g->NodeName(3), "a+b");
  EXPECT_EQ(g->Members(3), (std::vector<EventId>{ab}));
  EXPECT_EQ(g->NodeFrequency(3), 0.5);
  EXPECT_EQ(g->EdgeFrequency(1, 2), 0.5);
  EXPECT_EQ(g->EdgeFrequency(3, 2), 0.5);

  Result<RewrittenGraph> merged = BuildWithCompositesByTraceScan(log, {{a, b}});
  ASSERT_TRUE(merged.ok());
  ASSERT_EQ(merged->graph.NumNodes(), 3u);
  EXPECT_EQ(merged->graph.NodeFrequency(1), 1.0);
}

// Seeded families of disjoint candidates, as the greedy search proposes
// them, over generated logs of both sides of several pairs.
TEST(DependencyGraphBuilderTest, DiscoveredFamiliesMatchReference) {
  DependencyGraphOptions min_freq;
  min_freq.min_edge_frequency = 0.2;
  DependencyGraphOptions no_artificial;
  no_artificial.add_artificial_event = false;
  CandidateOptions discovery;
  discovery.min_confidence = 0.5;
  size_t families = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    PairOptions opts;
    opts.num_activities = 10 + static_cast<int>(seed);
    opts.num_traces = 40;
    opts.num_composites = 2;
    opts.seed = seed;
    LogPair pair = MakeLogPair(Testbed::kDsFB, opts);
    Rng rng(seed);
    for (const EventLog* log : {&pair.log1, &pair.log2}) {
      std::vector<CompositeCandidate> candidates =
          DiscoverCandidates(*log, discovery);
      for (int round = 0; round < 4; ++round) {
        rng.Shuffle(&candidates);
        std::vector<char> used(log->NumEvents(), 0);
        std::vector<std::vector<EventId>> family;
        for (const CompositeCandidate& cand : candidates) {
          bool free = true;
          for (EventId e : cand.events) free = free && !used[e];
          if (!free) continue;
          for (EventId e : cand.events) used[e] = 1;
          family.push_back(cand.events);
          SCOPED_TRACE("seed " + std::to_string(seed) + " family of " +
                       std::to_string(family.size()));
          ExpectBuilderMatchesReference(*log, family);
          ExpectBuilderMatchesReference(*log, family, min_freq);
          ExpectBuilderMatchesReference(*log, family, no_artificial);
          ++families;
        }
      }
    }
  }
  EXPECT_GT(families, 50u);
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
    Result<RewrittenGraph> ref =
        BuildWithCompositesByTraceScan(log, c.composites);
    Result<DependencyGraph> got = builder.BuildWithComposites(c.composites);
    ASSERT_FALSE(ref.ok());
    ASSERT_FALSE(got.ok());
    EXPECT_TRUE(got.status().IsInvalidArgument());
    EXPECT_EQ(ref.status().ToString(), got.status().ToString());
  }
}

TEST(DependencyGraphBuilderTest, GroupsEquivalentTraces) {
  const EventLog log = SmallLog();
  // The two identical traces share one group.
  EXPECT_EQ(DependencyGraphBuilder(log).num_trace_groups(), 4u);
}

TEST(DependencyGraphBuilderTest, ConcurrentBuildsAreIdentical) {
  EventLog log = SmallLog();
  EventId b = log.FindEvent("b");
  EventId c = log.FindEvent("c");
  const DependencyGraphBuilder builder(log);

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
    EXPECT_EQ(TraceScanDifference(**r, log, {{b, c}}), "");
  }
}

}  // namespace
}  // namespace ems
