// Pins the by-id TraceCounter (src/log/trace_counter.h) to the
// trace-scan reference (trace_count_reference.h) on seeded random logs:
// vocabularies of 1-60 events, 0-300 traces of length 0-20, with empty
// traces, `a a` repeats and vocabulary no trace uses. Checked:
//   * every event and pair trace count and occurrence count, and the
//     (a, b) order of the sorted readout;
//   * LogStats, which reads the counter;
//   * DependencyGraph::Build against a graph built from the reference
//     counts, byte for byte through the snapshot encoder, with and
//     without a minimum edge frequency and the artificial event;
//   * folding a log in random contiguous splits against folding it once,
//     including the pairs each split touched, and the streaming graph
//     fed the same splits.
#include "log/trace_counter.h"

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/dependency_graph.h"
#include "graph/streaming_graph.h"
#include "log/log_stats.h"
#include "log/trace_count_reference.h"
#include "store/snapshot.h"

namespace ems {
namespace {

using testing::BuildByTraceScan;
using testing::CountByTraceScan;
using testing::CountsDifference;
using testing::ReferenceTraceCounts;

std::vector<std::string> Vocabulary(size_t size) {
  std::vector<std::string> names;
  for (size_t i = 0; i < size; ++i) {
    std::string name = "e";
    name += std::to_string(i);
    names.push_back(std::move(name));
  }
  return names;
}

// Traces as name lists, so the same traces can be added at once or
// appended in batches.
std::vector<std::vector<std::string>> RandomTraces(std::mt19937_64& rng,
                                                   size_t vocab) {
  const std::vector<std::string> names = Vocabulary(vocab);
  std::uniform_int_distribution<size_t> pick(0, vocab - 1);
  std::uniform_int_distribution<size_t> num_traces(0, 300);
  std::uniform_int_distribution<size_t> length(0, 20);
  std::uniform_int_distribution<int> percent(0, 99);
  std::vector<std::vector<std::string>> traces(num_traces(rng));
  for (auto& trace : traces) {
    const size_t len = percent(rng) < 10 ? 0 : length(rng);
    size_t prev = pick(rng);
    for (size_t i = 0; i < len; ++i) {
      // A quarter of the steps repeat the previous event: `a a`.
      const size_t e = (i > 0 && percent(rng) < 25) ? prev : pick(rng);
      trace.push_back(names[e]);
      prev = e;
    }
  }
  return traces;
}

// Half the logs intern the whole vocabulary first, so some events have
// no occurrence at all.
EventLog LogOf(const std::vector<std::vector<std::string>>& traces,
               size_t vocab, bool intern_all) {
  EventLog log;
  if (intern_all) {
    for (const std::string& name : Vocabulary(vocab)) log.AddEvent(name);
  }
  for (const auto& trace : traces) log.AddTrace(trace);
  return log;
}

std::vector<DependencyGraphOptions> GraphOptions() {
  std::vector<DependencyGraphOptions> all(4);
  all[1].min_edge_frequency = 0.05;
  all[2].min_edge_frequency = 0.3;
  all[3].add_artificial_event = false;
  all[3].min_edge_frequency = 0.1;
  return all;
}

// Random cut points 0 = c_0 <= c_1 <= ... <= c_k = n.
std::vector<size_t> RandomSplits(std::mt19937_64& rng, size_t n) {
  std::uniform_int_distribution<size_t> parts(1, 6);
  std::uniform_int_distribution<size_t> cut(0, n);
  std::vector<size_t> cuts = {0, n};
  for (size_t i = parts(rng); i > 1; --i) cuts.push_back(cut(rng));
  std::sort(cuts.begin(), cuts.end());
  return cuts;
}

constexpr int kLogs = 200;

TEST(TraceCounterTest, CountsMatchTraceScanReference) {
  std::mt19937_64 rng(1801);
  std::uniform_int_distribution<size_t> vocab(1, 60);
  for (int k = 0; k < kLogs; ++k) {
    SCOPED_TRACE("log " + std::to_string(k));
    const size_t v = vocab(rng);
    const EventLog log = LogOf(RandomTraces(rng, v), v, k % 2 == 0);
    TraceCounter counter;
    counter.Add(log);
    EXPECT_EQ(CountsDifference(counter, CountByTraceScan(log)), "");
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(TraceCounterTest, LogStatsMatchesTraceScanReference) {
  std::mt19937_64 rng(1802);
  std::uniform_int_distribution<size_t> vocab(1, 60);
  for (int k = 0; k < kLogs; ++k) {
    SCOPED_TRACE("log " + std::to_string(k));
    const size_t v = vocab(rng);
    const EventLog log = LogOf(RandomTraces(rng, v), v, k % 2 == 1);
    const ReferenceTraceCounts want = CountByTraceScan(log);
    const LogStats stats(log);
    ASSERT_EQ(stats.num_traces(), want.num_traces);
    ASSERT_EQ(stats.num_events(), want.event_traces.size());
    for (size_t e = 0; e < want.event_traces.size(); ++e) {
      EXPECT_EQ(stats.EventTraceCount(static_cast<EventId>(e)),
                want.event_traces[e]);
      EXPECT_EQ(stats.EventOccurrences(static_cast<EventId>(e)),
                want.event_occurrences[e]);
    }
    const LogStats::FollowsTraceCounts& pairs = stats.follows_trace_counts();
    ASSERT_EQ(pairs.size(), want.follows_traces.size());
    size_t i = 0;
    for (const auto& [pair, traces] : want.follows_traces) {
      EXPECT_EQ(pairs[i].first, pair);
      EXPECT_EQ(pairs[i].second, traces);
      EXPECT_EQ(stats.FollowsOccurrences(pair.first, pair.second),
                want.follows_occurrences.at(pair));
      ++i;
    }
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(TraceCounterTest, BuildEncodesLikeTraceScanGraph) {
  std::mt19937_64 rng(1803);
  std::uniform_int_distribution<size_t> vocab(1, 60);
  for (int k = 0; k < kLogs; ++k) {
    SCOPED_TRACE("log " + std::to_string(k));
    const size_t v = vocab(rng);
    const EventLog log = LogOf(RandomTraces(rng, v), v, k % 3 == 0);
    for (const DependencyGraphOptions& options : GraphOptions()) {
      EXPECT_EQ(store::EncodeDependencyGraph(
                    DependencyGraph::Build(log, options)),
                store::EncodeDependencyGraph(BuildByTraceScan(log, options)))
          << "min_edge_frequency " << options.min_edge_frequency
          << " artificial " << options.add_artificial_event;
    }
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(TraceCounterTest, FoldingInSplitsEqualsFoldingOnce) {
  std::mt19937_64 rng(1804);
  std::uniform_int_distribution<size_t> vocab(1, 60);
  for (int k = 0; k < kLogs; ++k) {
    SCOPED_TRACE("log " + std::to_string(k));
    const size_t v = vocab(rng);
    const EventLog log = LogOf(RandomTraces(rng, v), v, k % 2 == 0);
    const std::vector<size_t> cuts = RandomSplits(rng, log.NumTraces());
    TraceCounter split;
    for (size_t i = 0; i + 1 < cuts.size(); ++i) {
      const size_t before = split.num_traces();
      split.Add(log, cuts[i], cuts[i + 1]);
      // The readout since `before` holds exactly the pairs of this split.
      std::set<std::pair<EventId, EventId>> touched;
      for (size_t t = cuts[i]; t < cuts[i + 1]; ++t) {
        const Trace& trace = log.trace(t);
        for (size_t j = 0; j + 1 < trace.size(); ++j) {
          touched.emplace(trace[j], trace[j + 1]);
        }
      }
      const std::vector<FollowsCount> since = split.SortedFollows(before);
      ASSERT_EQ(since.size(), touched.size());
      size_t j = 0;
      for (const auto& pair : touched) {
        EXPECT_EQ(std::make_pair(since[j].a, since[j].b), pair);
        EXPECT_EQ(since[j].traces,
                  split.FollowsTraceCount(pair.first, pair.second));
        ++j;
      }
    }
    EXPECT_EQ(CountsDifference(split, CountByTraceScan(log)), "");
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(TraceCounterTest, StreamedSplitsEncodeLikeTraceScanGraph) {
  std::mt19937_64 rng(1805);
  std::uniform_int_distribution<size_t> vocab(1, 60);
  for (int k = 0; k < kLogs / 3; ++k) {
    SCOPED_TRACE("log " + std::to_string(k));
    const size_t v = vocab(rng);
    const auto traces = RandomTraces(rng, v);
    const std::vector<size_t> cuts = RandomSplits(rng, traces.size());
    for (const DependencyGraphOptions& options : GraphOptions()) {
      auto slice = [&](size_t from, size_t to) {
        return std::vector<std::vector<std::string>>(
            traces.begin() + static_cast<ptrdiff_t>(from),
            traces.begin() + static_cast<ptrdiff_t>(to));
      };
      EventLog log;
      log.AppendTraces(slice(0, cuts[1]));
      StreamingDependencyGraph stream(log, options);
      EXPECT_EQ(store::EncodeDependencyGraph(stream.graph()),
                store::EncodeDependencyGraph(BuildByTraceScan(log, options)));
      for (size_t i = 1; i + 1 < cuts.size(); ++i) {
        const AppendDelta delta =
            log.AppendTraces(slice(cuts[i], cuts[i + 1]));
        stream.ApplyAppend(delta.first_new_trace);
        EXPECT_EQ(store::EncodeDependencyGraph(stream.graph()),
                  store::EncodeDependencyGraph(BuildByTraceScan(log, options)))
            << "after split " << i << ", min_edge_frequency "
            << options.min_edge_frequency;
      }
    }
    if (::testing::Test::HasFailure()) return;
  }
}

}  // namespace
}  // namespace ems
