#include "log/trace_count_reference.h"

#include <set>
#include <string>
#include <tuple>

namespace ems {
namespace testing {

ReferenceTraceCounts CountByTraceScan(const EventLog& log) {
  ReferenceTraceCounts counts;
  counts.num_traces = log.NumTraces();
  counts.event_traces.assign(log.NumEvents(), 0);
  counts.event_occurrences.assign(log.NumEvents(), 0);
  std::set<EventId> seen_events;
  std::set<std::pair<EventId, EventId>> seen_pairs;
  for (const Trace& t : log.traces()) {
    seen_events.clear();
    seen_pairs.clear();
    for (size_t i = 0; i < t.size(); ++i) {
      ++counts.event_occurrences[static_cast<size_t>(t[i])];
      seen_events.insert(t[i]);
      if (i + 1 < t.size()) {
        auto key = std::make_pair(t[i], t[i + 1]);
        ++counts.follows_occurrences[key];
        seen_pairs.insert(key);
      }
    }
    for (EventId v : seen_events) ++counts.event_traces[static_cast<size_t>(v)];
    for (const auto& p : seen_pairs) ++counts.follows_traces[p];
  }
  return counts;
}

std::string CountsDifference(const TraceCounter& got,
                             const ReferenceTraceCounts& want) {
  auto differ = [](const std::string& what, size_t got_value,
                   size_t want_value) {
    return what + ": got " + std::to_string(got_value) + ", want " +
           std::to_string(want_value);
  };
  if (got.num_traces() != want.num_traces) {
    return differ("num_traces", got.num_traces(), want.num_traces);
  }
  if (got.num_events() != want.event_traces.size()) {
    return differ("num_events", got.num_events(), want.event_traces.size());
  }
  for (size_t e = 0; e < want.event_traces.size(); ++e) {
    const EventId v = static_cast<EventId>(e);
    const std::string event = "event " + std::to_string(e);
    if (got.EventTraceCount(v) != want.event_traces[e]) {
      return differ(event + " traces", got.EventTraceCount(v),
                    want.event_traces[e]);
    }
    if (got.EventOccurrences(v) != want.event_occurrences[e]) {
      return differ(event + " occurrences", got.EventOccurrences(v),
                    want.event_occurrences[e]);
    }
  }
  const std::vector<FollowsCount> sorted = got.SortedFollows();
  if (sorted.size() != want.follows_traces.size()) {
    return differ("pairs", sorted.size(), want.follows_traces.size());
  }
  size_t k = 0;
  for (const auto& [pair, traces] : want.follows_traces) {
    const FollowsCount& p = sorted[k++];
    const std::string name = "pair (" + std::to_string(pair.first) + ", " +
                             std::to_string(pair.second) + ")";
    const size_t occurrences = want.follows_occurrences.at(pair);
    if (p.a != pair.first || p.b != pair.second) {
      return "sorted readout entry " + std::to_string(k - 1) + " is (" +
             std::to_string(p.a) + ", " + std::to_string(p.b) + "), want " +
             name;
    }
    if (p.traces != traces) return differ(name + " traces", p.traces, traces);
    if (p.occurrences != occurrences) {
      return differ(name + " occurrences", p.occurrences, occurrences);
    }
    if (got.FollowsTraceCount(pair.first, pair.second) != traces ||
        got.FollowsOccurrences(pair.first, pair.second) != occurrences) {
      return name + ": lookup disagrees with the sorted readout";
    }
  }
  const EventId n = static_cast<EventId>(want.event_traces.size());
  for (EventId a = 0; a < n; ++a) {
    for (EventId b = 0; b < n; ++b) {
      if (want.follows_traces.count({a, b}) != 0) continue;
      if (got.FollowsTraceCount(a, b) != 0 ||
          got.FollowsOccurrences(a, b) != 0) {
        return "absent pair (" + std::to_string(a) + ", " +
               std::to_string(b) + ") reads nonzero";
      }
    }
  }
  return "";
}

DependencyGraph BuildByTraceScan(const EventLog& log,
                                 const DependencyGraphOptions& options) {
  const ReferenceTraceCounts counts = CountByTraceScan(log);
  auto frequency = [&](size_t count) {
    if (counts.num_traces == 0) return 0.0;
    return static_cast<double>(count) /
           static_cast<double>(counts.num_traces);
  };
  std::vector<double> node_frequencies;
  for (size_t count : counts.event_traces) {
    node_frequencies.push_back(frequency(count));
  }
  std::vector<std::tuple<NodeId, NodeId, double>> edges;
  for (const auto& [pair, count] : counts.follows_traces) {
    if (pair.first == pair.second) continue;
    edges.emplace_back(pair.first, pair.second, frequency(count));
  }
  return DependencyGraph::FromExplicit(log.event_names(), node_frequencies,
                                       edges, options);
}

}  // namespace testing
}  // namespace ems
