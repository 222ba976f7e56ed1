#include "log/trace_count_reference.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <tuple>

#include "util/string_util.h"

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

Result<RewrittenGraph> BuildWithCompositesByTraceScan(
    const EventLog& log, const std::vector<std::vector<EventId>>& composites,
    const DependencyGraphOptions& options) {
  // Map each member event to its composite index; -1 = not in a composite.
  std::vector<int> composite_of(log.NumEvents(), -1);
  for (size_t k = 0; k < composites.size(); ++k) {
    if (composites[k].empty()) {
      return Status::InvalidArgument("empty composite");
    }
    for (EventId e : composites[k]) {
      if (e < 0 || static_cast<size_t>(e) >= log.NumEvents()) {
        return Status::InvalidArgument("composite contains invalid event id");
      }
      if (composite_of[static_cast<size_t>(e)] != -1) {
        return Status::InvalidArgument("composites overlap on event '" +
                                       log.EventName(e) + "'");
      }
      composite_of[static_cast<size_t>(e)] = static_cast<int>(k);
    }
  }

  // Composite display names: members joined with '+' in id order.
  std::vector<std::string> composite_names(composites.size());
  for (size_t k = 0; k < composites.size(); ++k) {
    std::vector<EventId> sorted = composites[k];
    std::sort(sorted.begin(), sorted.end());
    std::vector<std::string> parts;
    for (EventId e : sorted) parts.push_back(log.EventName(e));
    composite_names[k] = Join(parts, "+");
  }

  // Pre-intern composite events so their ids come first, then rewrite
  // traces: a maximal run of one composite's members collapses into one
  // occurrence of the composite event.
  EventLog rewritten;
  for (const std::string& name : composite_names) rewritten.AddEvent(name);
  for (const Trace& t : log.traces()) {
    std::vector<std::string> names;
    int run_composite = -1;
    for (EventId e : t) {
      const int k = composite_of[static_cast<size_t>(e)];
      if (k >= 0 && k == run_composite) continue;  // extend current run
      run_composite = k;
      names.push_back(k >= 0 ? composite_names[static_cast<size_t>(k)]
                             : log.EventName(e));
    }
    rewritten.AddTrace(names);
  }

  RewrittenGraph out{BuildByTraceScan(rewritten, options), {}};
  // Original members by name: a composite's name first, else the event.
  for (NodeId v = 0; v < static_cast<NodeId>(out.graph.NumNodes()); ++v) {
    if (out.graph.IsArtificial(v)) {
      out.members.emplace_back();
      continue;
    }
    const std::string& name = out.graph.NodeName(v);
    auto it = std::find(composite_names.begin(), composite_names.end(), name);
    if (it != composite_names.end()) {
      out.members.push_back(composites[static_cast<size_t>(
          it - composite_names.begin())]);
    } else {
      out.members.push_back({log.FindEvent(name)});
    }
  }
  return out;
}

namespace {

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(),
                    [](double x, double y) { return Bits(x) == Bits(y); });
}

}  // namespace

std::string GraphDifference(const DependencyGraph& got,
                            const RewrittenGraph& want) {
  const DependencyGraph& g = want.graph;
  if (got.has_artificial() != g.has_artificial()) return "v^X differs";
  if (got.NumNodes() != g.NumNodes()) {
    return "nodes: got " + std::to_string(got.NumNodes()) + ", want " +
           std::to_string(g.NumNodes());
  }
  for (NodeId v = 0; v < static_cast<NodeId>(g.NumNodes()); ++v) {
    const std::string node = "node " + std::to_string(v) + " ";
    if (got.NodeName(v) != g.NodeName(v)) {
      return node + "name: got '" + got.NodeName(v) + "', want '" +
             g.NodeName(v) + "'";
    }
    if (got.Members(v) != want.members[static_cast<size_t>(v)]) {
      return node + "members differ";
    }
    if (Bits(got.NodeFrequency(v)) != Bits(g.NodeFrequency(v))) {
      return node + "frequency differs";
    }
    if (got.Successors(v) != g.Successors(v) ||
        !SameBits(got.SuccessorFrequencies(v), g.SuccessorFrequencies(v))) {
      return node + "successors differ";
    }
    if (got.Predecessors(v) != g.Predecessors(v) ||
        !SameBits(got.PredecessorFrequencies(v),
                  g.PredecessorFrequencies(v))) {
      return node + "predecessors differ";
    }
  }
  return "";
}

std::string TraceScanDifference(
    const DependencyGraph& got, const EventLog& log,
    const std::vector<std::vector<EventId>>& composites,
    const DependencyGraphOptions& options) {
  Result<RewrittenGraph> want =
      BuildWithCompositesByTraceScan(log, composites, options);
  if (!want.ok()) return "trace scan failed: " + want.status().ToString();
  return GraphDifference(got, *want);
}

}  // namespace testing
}  // namespace ems
