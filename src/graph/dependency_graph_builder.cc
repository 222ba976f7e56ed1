#include "graph/dependency_graph_builder.h"

#include <algorithm>
#include <cstddef>
#include <map>
#include <string>
#include <unordered_map>

#include "util/string_util.h"

namespace ems {

DependencyGraphBuilder::DependencyGraphBuilder(const EventLog& log)
    : log_(log), num_traces_(log.NumTraces()) {
  std::vector<char> seen_event(log.NumEvents(), 0);
  // Group key -> index into groups_. std::map keeps keys alive for the
  // duration of the loop so groups_ can hold copies without re-hashing.
  std::map<std::pair<std::vector<EventId>,
                     std::vector<std::pair<EventId, EventId>>>,
           size_t>
      index;
  for (const Trace& t : log.traces()) {
    std::vector<EventId> events;
    events.reserve(t.size());
    for (EventId e : t) {
      events.push_back(e);
      if (!seen_event[static_cast<size_t>(e)]) {
        seen_event[static_cast<size_t>(e)] = 1;
        first_occurrence_.push_back(e);
      }
    }
    std::sort(events.begin(), events.end());
    events.erase(std::unique(events.begin(), events.end()), events.end());

    std::vector<std::pair<EventId, EventId>> successions;
    successions.reserve(t.size());
    for (size_t i = 1; i < t.size(); ++i) {
      // (a, a) pairs never produce an edge (f(v, v) is node frequency) and
      // collapse to (s, s) under any member map, so they are dropped here.
      if (t[i - 1] != t[i]) successions.emplace_back(t[i - 1], t[i]);
    }
    std::sort(successions.begin(), successions.end());
    successions.erase(std::unique(successions.begin(), successions.end()),
                      successions.end());

    auto key = std::make_pair(std::move(events), std::move(successions));
    auto [it, inserted] = index.emplace(std::move(key), groups_.size());
    if (inserted) {
      groups_.push_back({it->first.first, it->first.second, 1});
    } else {
      ++groups_[it->second].multiplicity;
    }
  }
}

Result<DependencyGraph> DependencyGraphBuilder::BuildWithComposites(
    const std::vector<std::vector<EventId>>& composites,
    const DependencyGraphOptions& options) const {
  // Symbol of each event in the collapsed log: composites take ids
  // 0..K-1, then every event no composite covers that occurs in a trace,
  // in stream first-occurrence order.
  const int32_t num_composites = static_cast<int32_t>(composites.size());
  std::vector<int32_t> sym_of(log_.NumEvents(), -1);
  for (int32_t k = 0; k < num_composites; ++k) {
    if (composites[static_cast<size_t>(k)].empty()) {
      return Status::InvalidArgument("empty composite");
    }
    for (EventId e : composites[static_cast<size_t>(k)]) {
      if (e < 0 || static_cast<size_t>(e) >= log_.NumEvents()) {
        return Status::InvalidArgument("composite contains invalid event id");
      }
      if (sym_of[static_cast<size_t>(e)] != -1) {
        return Status::InvalidArgument("composites overlap on event '" +
                                       log_.EventName(e) + "'");
      }
      sym_of[static_cast<size_t>(e)] = k;
    }
  }

  std::vector<std::string> composite_names(composites.size());
  for (size_t k = 0; k < composites.size(); ++k) {
    std::vector<EventId> sorted = composites[k];
    std::sort(sorted.begin(), sorted.end());
    std::vector<std::string> parts;
    parts.reserve(sorted.size());
    for (EventId e : sorted) parts.push_back(log_.EventName(e));
    composite_names[k] = Join(parts, "+");
  }

  int32_t num_symbols = num_composites;
  std::vector<EventId> singleton_event;  // symbol id - K -> original event
  for (EventId e : first_occurrence_) {
    if (sym_of[static_cast<size_t>(e)] != -1) continue;  // composite member
    sym_of[static_cast<size_t>(e)] = num_symbols++;
    singleton_event.push_back(e);
  }

  // Aggregate per-symbol trace counts and per-succession trace counts over
  // the trace groups. Stamps dedup within one group (several members of a
  // group may collapse onto the same symbol or symbol pair).
  const size_t s_count = static_cast<size_t>(num_symbols);
  std::vector<size_t> node_count(s_count, 0);
  std::vector<int32_t> node_stamp(s_count, -1);
  struct EdgeEntry {
    int32_t stamp = -1;
    size_t count = 0;
  };
  std::unordered_map<int64_t, EdgeEntry> edge_counts;
  for (size_t gi = 0; gi < groups_.size(); ++gi) {
    const TraceGroup& group = groups_[gi];
    const int32_t stamp = static_cast<int32_t>(gi);
    for (EventId e : group.events) {
      int32_t s = sym_of[static_cast<size_t>(e)];
      if (node_stamp[static_cast<size_t>(s)] == stamp) continue;
      node_stamp[static_cast<size_t>(s)] = stamp;
      node_count[static_cast<size_t>(s)] += group.multiplicity;
    }
    for (const auto& [a, b] : group.successions) {
      int32_t sa = sym_of[static_cast<size_t>(a)];
      int32_t sb = sym_of[static_cast<size_t>(b)];
      if (sa == sb) continue;  // internal to one composite: run-collapsed
      int64_t key = (static_cast<int64_t>(sa) << 32) |
                    static_cast<int64_t>(static_cast<uint32_t>(sb));
      EdgeEntry& entry = edge_counts[key];
      if (entry.stamp == stamp) continue;
      entry.stamp = stamp;
      entry.count += group.multiplicity;
    }
  }

  // Assemble the graph as DependencyGraph::Build does: artificial node
  // first, event nodes in symbol order, edges in (a, b) order, then
  // artificial fan-in/out; every frequency is count / num_traces.
  DependencyGraph g;
  g.has_artificial_ = options.add_artificial_event;
  if (g.has_artificial_) g.AddNode("<X>", 1.0, {});
  const NodeId offset = g.has_artificial_ ? 1 : 0;
  const double traces = static_cast<double>(num_traces_);
  for (int32_t s = 0; s < num_symbols; ++s) {
    double freq = num_traces_ == 0
                      ? 0.0
                      : static_cast<double>(node_count[static_cast<size_t>(s)]) /
                            traces;
    if (s < num_composites) {
      g.AddNode(composite_names[static_cast<size_t>(s)], freq,
                composites[static_cast<size_t>(s)]);
    } else {
      EventId e = singleton_event[static_cast<size_t>(s - num_composites)];
      g.AddNode(log_.EventName(e), freq, {e});
    }
  }
  std::vector<int64_t> keys;
  keys.reserve(edge_counts.size());
  for (const auto& [key, entry] : edge_counts) {
    (void)entry;
    keys.push_back(key);
  }
  // (sa << 32) | sb sorts like the (sa, sb) pairs for non-negative
  // symbol ids.
  std::sort(keys.begin(), keys.end());
  for (int64_t key : keys) {
    const EdgeEntry& entry = edge_counts[key];
    double f = num_traces_ == 0
                   ? 0.0
                   : static_cast<double>(entry.count) / traces;
    if (f < options.min_edge_frequency) continue;
    NodeId sa = static_cast<NodeId>(key >> 32);
    NodeId sb = static_cast<NodeId>(key & 0x7fffffff);
    g.AddEdge(sa + offset, sb + offset, f);
  }
  if (g.has_artificial_) g.FinalizeArtificial();
  return g;
}

}  // namespace ems
