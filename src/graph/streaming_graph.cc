#include "graph/streaming_graph.h"

#include <algorithm>

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

}  // namespace

StreamingDependencyGraph::StreamingDependencyGraph(
    const EventLog& log, const DependencyGraphOptions& options)
    : log_(log), options_(options) {
  counts_.Add(log);
  graph_ = DependencyGraph::FromCounts(log, counts_, options);
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

  // 6. Longest-distance maintenance. Distances depend on structure only,
  // so a purely numeric delta leaves warm caches untouched; otherwise
  // re-derive exactly the rows whose path set could have changed.
  if (art && (!added.empty() || !removed.empty() || !new_nodes.empty())) {
    std::vector<NodeId> fwd_seeds;
    std::vector<NodeId> bwd_seeds;
    for (const auto& [a, b] : added) {
      fwd_seeds.push_back(b);
      bwd_seeds.push_back(a);
    }
    for (const auto& [a, b] : removed) {
      fwd_seeds.push_back(b);
      bwd_seeds.push_back(a);
    }
    for (NodeId v : new_nodes) {
      fwd_seeds.push_back(v);
      bwd_seeds.push_back(v);
    }
    if (!graph_.longest_from_.empty()) {
      stats.distance_rows_invalidated +=
          MaintainDistances(graph_.longest_from_, /*forward=*/true,
                            fwd_seeds);
    }
    if (!graph_.longest_to_.empty()) {
      stats.distance_rows_invalidated +=
          MaintainDistances(graph_.longest_to_, /*forward=*/false,
                            bwd_seeds);
    }
  }
  return stats;
}

size_t StreamingDependencyGraph::MaintainDistances(
    std::vector<int>& dist, bool forward,
    const std::vector<NodeId>& seeds) const {
  const DependencyGraph& g = graph_;
  const size_t n = g.NumNodes();
  dist.resize(n, 0);

  // Dirty closure: every changed path from (resp. to) v^X traverses a
  // changed edge, so it passes that edge's downstream (resp. upstream)
  // endpoint — a seed. Closing the seeds under `forward` real edges of
  // the NEW graph therefore covers every node whose distance could
  // differ; all other rows are provably unchanged and stay cached.
  std::vector<char> dirty(n, 0);
  std::vector<NodeId> work;
  for (NodeId s : seeds) {
    if (dirty[static_cast<size_t>(s)]) continue;
    dirty[static_cast<size_t>(s)] = 1;
    work.push_back(s);
  }
  auto walk_nbrs = [&](NodeId v) -> const std::vector<NodeId>& {
    return forward ? g.Successors(v) : g.Predecessors(v);
  };
  auto in_nbrs = [&](NodeId v) -> const std::vector<NodeId>& {
    return forward ? g.Predecessors(v) : g.Successors(v);
  };
  while (!work.empty()) {
    const NodeId v = work.back();
    work.pop_back();
    for (NodeId w : walk_nbrs(v)) {
      if (g.IsArtificial(w) || dirty[static_cast<size_t>(w)]) continue;
      dirty[static_cast<size_t>(w)] = 1;
      work.push_back(w);
    }
  }

  // Tarjan restricted to the dirty set (a cycle through a dirty node is
  // entirely reachable from it, hence entirely dirty — induced SCCs are
  // full SCCs), mirroring the batch ComputeScc's iterative structure so
  // the condensation order semantics match LongestDistances exactly.
  std::vector<int> comp(n, -1);
  std::vector<int> index(n, -1);
  std::vector<int> low(n, 0);
  std::vector<char> on_stack(n, 0);
  std::vector<NodeId> scc_stack;
  std::vector<std::vector<NodeId>> comp_nodes;
  std::vector<char> nontrivial;
  int next_index = 0;
  std::vector<std::pair<NodeId, size_t>> dfs;
  for (NodeId start = 0; start < static_cast<NodeId>(n); ++start) {
    if (!dirty[static_cast<size_t>(start)]) continue;
    if (index[static_cast<size_t>(start)] != -1) continue;
    dfs.emplace_back(start, 0);
    while (!dfs.empty()) {
      auto& [v, pos] = dfs.back();
      if (pos == 0) {
        index[static_cast<size_t>(v)] = low[static_cast<size_t>(v)] =
            next_index++;
        scc_stack.push_back(v);
        on_stack[static_cast<size_t>(v)] = 1;
      }
      const auto& succ = g.Successors(v);
      bool descended = false;
      while (pos < succ.size()) {
        const NodeId w = succ[pos++];
        if (g.IsArtificial(w) || !dirty[static_cast<size_t>(w)]) continue;
        if (index[static_cast<size_t>(w)] == -1) {
          dfs.emplace_back(w, 0);
          descended = true;
          break;
        }
        if (on_stack[static_cast<size_t>(w)]) {
          low[static_cast<size_t>(v)] = std::min(
              low[static_cast<size_t>(v)], index[static_cast<size_t>(w)]);
        }
      }
      if (descended) continue;
      if (low[static_cast<size_t>(v)] == index[static_cast<size_t>(v)]) {
        comp_nodes.emplace_back();
        const int cid = static_cast<int>(comp_nodes.size()) - 1;
        while (true) {
          const NodeId w = scc_stack.back();
          scc_stack.pop_back();
          on_stack[static_cast<size_t>(w)] = 0;
          comp[static_cast<size_t>(w)] = cid;
          comp_nodes.back().push_back(w);
          if (w == v) break;
        }
        nontrivial.push_back(comp_nodes.back().size() > 1 ? 1 : 0);
      }
      const NodeId finished = v;
      dfs.pop_back();
      if (!dfs.empty()) {
        NodeId parent = dfs.back().first;
        low[static_cast<size_t>(parent)] =
            std::min(low[static_cast<size_t>(parent)],
                     low[static_cast<size_t>(finished)]);
      }
    }
  }

  // Condensation sweep over the dirty components. Forward distances
  // consume in-neighbor values, so predecessors go first (reverse Tarjan
  // emission); backward distances consume successor values (ascending).
  // In-neighbors outside the dirty set read their final value straight
  // from the cache; dirty in-neighbors always live in an
  // already-processed component.
  const int num_comps = static_cast<int>(comp_nodes.size());
  size_t rewritten = 0;
  for (int step = 0; step < num_comps; ++step) {
    const int cid = forward ? num_comps - 1 - step : step;
    const auto& nodes = comp_nodes[static_cast<size_t>(cid)];
    bool comp_infinite = nontrivial[static_cast<size_t>(cid)] != 0;
    int comp_dist = 1;  // at minimum the direct artificial edge
    for (NodeId v : nodes) {
      for (NodeId u : in_nbrs(v)) {
        if (g.IsArtificial(u)) continue;
        if (dirty[static_cast<size_t>(u)] &&
            comp[static_cast<size_t>(u)] == cid) {
          continue;  // intra-component edge
        }
        const int du = dist[static_cast<size_t>(u)];
        if (du == kInfiniteDistance) {
          comp_infinite = true;
        } else {
          comp_dist = std::max(comp_dist, du + 1);
        }
      }
    }
    for (NodeId v : nodes) {
      dist[static_cast<size_t>(v)] =
          comp_infinite ? kInfiniteDistance : comp_dist;
      ++rewritten;
    }
  }
  return rewritten;
}

}  // namespace ems
