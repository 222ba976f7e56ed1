#include "graph/streaming_graph.h"

#include <algorithm>
#include <utility>

namespace ems {

namespace {

constexpr size_t kNpos = static_cast<size_t>(-1);

// Length of the sorted real-neighbor prefix of one adjacency list; the
// trailing artificial entry FinalizeArtificial appends (node 0, always
// last) is excluded. The artificial node's own lists hold real nodes
// only, so the check is uniform.
size_t RealPrefixLen(const std::vector<NodeId>& nbrs, bool has_artificial) {
  if (has_artificial && !nbrs.empty() && nbrs.back() == 0) {
    return nbrs.size() - 1;
  }
  return nbrs.size();
}

// Position of `b` in the sorted real prefix of `nbrs`, or kNpos.
size_t FindReal(const std::vector<NodeId>& nbrs, bool has_artificial,
                NodeId b) {
  const size_t len = RealPrefixLen(nbrs, has_artificial);
  auto end = nbrs.begin() + static_cast<ptrdiff_t>(len);
  auto it = std::lower_bound(nbrs.begin(), end, b);
  if (it != end && *it == b) return static_cast<size_t>(it - nbrs.begin());
  return kNpos;
}

// Inserts `b` into the sorted real prefix, keeping the frequency array
// aligned (the value is rewritten by the frequency sweep).
void InsertReal(std::vector<NodeId>& nbrs, std::vector<double>& freqs,
                bool has_artificial, NodeId b) {
  const size_t len = RealPrefixLen(nbrs, has_artificial);
  auto end = nbrs.begin() + static_cast<ptrdiff_t>(len);
  auto it = std::lower_bound(nbrs.begin(), end, b);
  const size_t pos = static_cast<size_t>(it - nbrs.begin());
  nbrs.insert(it, b);
  freqs.insert(freqs.begin() + static_cast<ptrdiff_t>(pos), 0.0);
}

void EraseAt(std::vector<NodeId>& nbrs, std::vector<double>& freqs,
             size_t pos) {
  nbrs.erase(nbrs.begin() + static_cast<ptrdiff_t>(pos));
  freqs.erase(freqs.begin() + static_cast<ptrdiff_t>(pos));
}

// Rows of a recomputed distance cache whose value differs from `before`.
// Nodes are only ever added, so a new node's row counts as changed.
size_t ChangedRows(const std::vector<int>& before,
                   const std::vector<int>& after) {
  EMS_DCHECK(before.size() <= after.size());
  size_t changed = after.size() - before.size();
  for (size_t v = 0; v < before.size(); ++v) {
    if (before[v] != after[v]) ++changed;
  }
  return changed;
}

}  // namespace

StreamingDependencyGraph::StreamingDependencyGraph(
    const EventLog& log, const DependencyGraphOptions& options)
    : log_(log), options_(options) {
  counts_.Add(log);
  graph_ = DependencyGraph::FromCounts(log, counts_, options);
  if (graph_.has_artificial_) {
    graph_.LongestDistancesFromArtificial();
    graph_.LongestDistancesToArtificial();
  }
}

StreamingGraphStats StreamingDependencyGraph::ApplyAppend(
    size_t first_new_trace) {
  StreamingGraphStats stats;
  EMS_DCHECK(first_new_trace == counts_.num_traces());
  EMS_DCHECK(log_.NumTraces() >= first_new_trace);
  const bool art = graph_.has_artificial_;
  const NodeId offset = art ? 1 : 0;
  const size_t old_vocab = graph_.names_.size() - static_cast<size_t>(offset);
  stats.appended_traces = log_.NumTraces() - first_new_trace;
  if (stats.appended_traces == 0 && log_.NumEvents() == old_vocab) {
    return stats;
  }

  // 1. Fold the delta traces into the cumulative counter, remembering
  // which events were absent before (they gain artificial edges).
  std::vector<char> was_absent(log_.NumEvents(), 1);
  for (size_t e = 0; e < counts_.num_events(); ++e) {
    was_absent[e] = counts_.EventTraceCount(static_cast<EventId>(e)) == 0;
  }
  counts_.Add(log_, first_new_trace, log_.NumTraces());
  const size_t num_traces = counts_.num_traces();

  // 2. New vocabulary becomes new nodes, in EventId order — Build's node
  // order, so existing NodeIds are a strict prefix of the rebuilt ones.
  std::vector<NodeId> new_nodes;
  for (size_t e = old_vocab; e < log_.NumEvents(); ++e) {
    new_nodes.push_back(static_cast<NodeId>(graph_.names_.size()));
    graph_.AddNode(log_.EventName(static_cast<EventId>(e)), 0.0,
                   {static_cast<EventId>(e)});
  }
  stats.new_nodes = new_nodes.size();

  // 3. Structural membership: an edge (a, b) exists iff a != b, its
  // trace count is nonzero, and count/num_traces clears the minimum
  // frequency. A growing denominator can push old edges below the
  // threshold, so a nonzero threshold rescans every counted pair; with
  // no threshold only pairs touched by the delta can change membership.
  const double traces = static_cast<double>(num_traces);
  std::vector<std::pair<NodeId, NodeId>> added;
  std::vector<std::pair<NodeId, NodeId>> removed;
  for (const FollowsCount& pair : counts_.SortedFollows(
           options_.min_edge_frequency > 0.0 ? 0 : first_new_trace)) {
    if (pair.a == pair.b) continue;  // f(v, v) is node frequency
    const NodeId a = pair.a + offset;
    const NodeId b = pair.b + offset;
    const double f = static_cast<double>(pair.traces) / traces;
    const bool desired = !(f < options_.min_edge_frequency);
    const size_t pos =
        FindReal(graph_.post_[static_cast<size_t>(a)], art, b);
    if (desired == (pos != kNpos)) continue;
    if (desired) {
      InsertReal(graph_.post_[static_cast<size_t>(a)],
                 graph_.post_freq_[static_cast<size_t>(a)], art, b);
      InsertReal(graph_.pre_[static_cast<size_t>(b)],
                 graph_.pre_freq_[static_cast<size_t>(b)], art, a);
      added.emplace_back(a, b);
    } else {
      EraseAt(graph_.post_[static_cast<size_t>(a)],
              graph_.post_freq_[static_cast<size_t>(a)], pos);
      const size_t ppos =
          FindReal(graph_.pre_[static_cast<size_t>(b)], art, a);
      EMS_DCHECK(ppos != kNpos);
      EraseAt(graph_.pre_[static_cast<size_t>(b)],
              graph_.pre_freq_[static_cast<size_t>(b)], ppos);
      removed.emplace_back(a, b);
    }
  }
  stats.added_edges = added.size();
  stats.removed_edges = removed.size();

  // 4. Events that went from absent to present gain their artificial
  // fan-in/out, placed exactly where FinalizeArtificial puts it: sorted
  // among the artificial node's real neighbors, trailing on the event's
  // own lists (after any real edges step 3 just inserted).
  if (art) {
    for (size_t e = 0; e < was_absent.size(); ++e) {
      if (!was_absent[e] ||
          counts_.EventTraceCount(static_cast<EventId>(e)) == 0) {
        continue;
      }
      const NodeId v = static_cast<NodeId>(e) + offset;
      InsertReal(graph_.post_[0], graph_.post_freq_[0], art, v);
      graph_.pre_[static_cast<size_t>(v)].push_back(0);
      graph_.pre_freq_[static_cast<size_t>(v)].push_back(0.0);
      graph_.post_[static_cast<size_t>(v)].push_back(0);
      graph_.post_freq_[static_cast<size_t>(v)].push_back(0.0);
      InsertReal(graph_.pre_[0], graph_.pre_freq_[0], art, v);
    }
  }

  // 5. Numeric sweep: every normalized frequency is count/num_traces and
  // the denominator just changed, so rewrite them all with the same
  // double divisions Build evaluates — this is what makes the maintained
  // graph bit-identical to a from-scratch Build.
  const size_t n = graph_.names_.size();
  for (size_t v = 0; v < n; ++v) {
    if (art && v == 0) continue;  // f(v^X) is pinned at 1.0
    const EventId e = graph_.members_[v][0];
    graph_.node_freq_[v] =
        num_traces == 0
            ? 0.0
            : static_cast<double>(counts_.EventTraceCount(e)) / traces;
  }
  auto edge_freq = [&](NodeId a, NodeId b) -> double {
    if (art && a == 0) return graph_.node_freq_[static_cast<size_t>(b)];
    if (art && b == 0) return graph_.node_freq_[static_cast<size_t>(a)];
    const size_t count =
        counts_.FollowsTraceCount(graph_.members_[static_cast<size_t>(a)][0],
                                  graph_.members_[static_cast<size_t>(b)][0]);
    EMS_DCHECK(count > 0);
    return static_cast<double>(count) / traces;
  };
  for (size_t v = 0; v < n; ++v) {
    const auto& post = graph_.post_[v];
    auto& post_freq = graph_.post_freq_[v];
    for (size_t i = 0; i < post.size(); ++i) {
      post_freq[i] = edge_freq(static_cast<NodeId>(v), post[i]);
    }
    const auto& pre = graph_.pre_[v];
    auto& pre_freq = graph_.pre_freq_[v];
    for (size_t i = 0; i < pre.size(); ++i) {
      pre_freq[i] = edge_freq(pre[i], static_cast<NodeId>(v));
    }
  }

  // 6. Distances depend on structure only, so a purely numeric delta
  // leaves both caches as they are; a structural one recomputes them with
  // DependencyGraph's own derivation.
  if (art && (!added.empty() || !removed.empty() || !new_nodes.empty())) {
    const std::vector<int> from = std::exchange(graph_.longest_from_, {});
    const std::vector<int> to = std::exchange(graph_.longest_to_, {});
    stats.distance_rows_invalidated =
        ChangedRows(from, graph_.LongestDistancesFromArtificial()) +
        ChangedRows(to, graph_.LongestDistancesToArtificial());
  }
  return stats;
}

}  // namespace ems
