#include "graph/dependency_graph.h"

#include <algorithm>
#include <sstream>
#include <tuple>

#include "util/string_util.h"

namespace ems {

void DependencyGraph::AddNode(std::string name, double freq,
                              std::vector<EventId> members) {
  names_.push_back(std::move(name));
  node_freq_.push_back(freq);
  members_.push_back(std::move(members));
  pre_.emplace_back();
  pre_freq_.emplace_back();
  post_.emplace_back();
  post_freq_.emplace_back();
}

void DependencyGraph::AddEdge(NodeId a, NodeId b, double freq) {
  EMS_DCHECK(ValidNode(a) && ValidNode(b));
  EMS_DCHECK(a != b);
  EMS_DCHECK(freq > 0.0);
  post_[static_cast<size_t>(a)].push_back(b);
  post_freq_[static_cast<size_t>(a)].push_back(freq);
  pre_[static_cast<size_t>(b)].push_back(a);
  pre_freq_[static_cast<size_t>(b)].push_back(freq);
}

void DependencyGraph::FinalizeArtificial() {
  // Connect v^X to every real node in both directions with weight f(v):
  // any event may virtually start or end a trace (Section 2).
  EMS_DCHECK(has_artificial_);
  for (NodeId v = 1; v < static_cast<NodeId>(names_.size()); ++v) {
    double f = node_freq_[static_cast<size_t>(v)];
    if (f <= 0.0) continue;
    AddEdge(0, v, f);
    AddEdge(v, 0, f);
  }
}

DependencyGraph DependencyGraph::Build(const EventLog& log,
                                       const DependencyGraphOptions& options) {
  TraceCounter counts;
  counts.Add(log);
  return FromCounts(log, counts, options);
}

DependencyGraph DependencyGraph::FromCounts(
    const EventLog& log, const TraceCounter& counts,
    const DependencyGraphOptions& options) {
  DependencyGraph g;
  g.has_artificial_ = options.add_artificial_event;
  if (g.has_artificial_) g.AddNode("<X>", 1.0, {});

  const size_t num_traces = counts.num_traces();
  auto frequency = [num_traces](size_t count) {
    return num_traces == 0 ? 0.0
                           : static_cast<double>(count) /
                                 static_cast<double>(num_traces);
  };
  const NodeId offset = g.has_artificial_ ? 1 : 0;
  for (EventId e = 0; e < static_cast<EventId>(log.NumEvents()); ++e) {
    g.AddNode(log.EventName(e), frequency(counts.EventTraceCount(e)), {e});
  }
  for (const FollowsCount& pair : counts.SortedFollows()) {
    // f(v, v) denotes node frequency, not a self-edge.
    if (pair.a == pair.b) continue;
    double f = frequency(pair.traces);
    if (f < options.min_edge_frequency) continue;
    g.AddEdge(pair.a + offset, pair.b + offset, f);
  }
  if (g.has_artificial_) g.FinalizeArtificial();
  return g;
}

DependencyGraph DependencyGraph::FromExplicit(
    const std::vector<std::string>& names,
    const std::vector<double>& node_frequencies,
    const std::vector<std::tuple<NodeId, NodeId, double>>& edges,
    const DependencyGraphOptions& options) {
  EMS_DCHECK(names.size() == node_frequencies.size());
  DependencyGraph g;
  g.has_artificial_ = options.add_artificial_event;
  if (g.has_artificial_) g.AddNode("<X>", 1.0, {});
  const NodeId offset = g.has_artificial_ ? 1 : 0;
  for (size_t i = 0; i < names.size(); ++i) {
    g.AddNode(names[i], node_frequencies[i], {static_cast<EventId>(i)});
  }
  for (const auto& [a, b, f] : edges) {
    if (f < options.min_edge_frequency) continue;
    g.AddEdge(a + offset, b + offset, f);
  }
  if (g.has_artificial_) g.FinalizeArtificial();
  return g;
}

size_t DependencyGraph::NumEdges() const {
  size_t n = 0;
  for (const auto& adj : post_) n += adj.size();
  return n;
}

double DependencyGraph::EdgeFrequency(NodeId a, NodeId b) const {
  EMS_DCHECK(ValidNode(a) && ValidNode(b));
  const auto& nbrs = post_[static_cast<size_t>(a)];
  for (size_t i = 0; i < nbrs.size(); ++i) {
    if (nbrs[i] == b) return post_freq_[static_cast<size_t>(a)][i];
  }
  return 0.0;
}

double DependencyGraph::AverageDegree() const {
  if (names_.empty()) return 0.0;
  return static_cast<double>(NumEdges()) / static_cast<double>(names_.size());
}

namespace {

// Iterative Tarjan SCC over the real-edge subgraph (artificial node and
// its edges excluded). Returns the SCC id of each node (artificial gets
// -1) and whether each SCC is non-trivial (size > 1; self-loops cannot
// occur because the builder rejects them).
struct SccResult {
  std::vector<int> comp;       // node -> scc id, -1 for excluded nodes
  std::vector<bool> nontrivial;
  int num_comps = 0;
};

SccResult ComputeScc(const DependencyGraph& g, bool skip_artificial) {
  const size_t n = g.NumNodes();
  SccResult result;
  result.comp.assign(n, -1);
  std::vector<int> index(n, -1), low(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<NodeId> stack;
  std::vector<size_t> comp_size;
  int next_index = 0;

  // Explicit DFS stack: (node, next-successor-position).
  std::vector<std::pair<NodeId, size_t>> dfs;
  for (NodeId start = 0; start < static_cast<NodeId>(n); ++start) {
    if (skip_artificial && g.IsArtificial(start)) continue;
    if (index[static_cast<size_t>(start)] != -1) continue;
    dfs.emplace_back(start, 0);
    while (!dfs.empty()) {
      auto& [v, pos] = dfs.back();
      if (pos == 0) {
        index[static_cast<size_t>(v)] = low[static_cast<size_t>(v)] =
            next_index++;
        stack.push_back(v);
        on_stack[static_cast<size_t>(v)] = true;
      }
      const auto& succ = g.Successors(v);
      bool descended = false;
      while (pos < succ.size()) {
        NodeId w = succ[pos++];
        if (skip_artificial && g.IsArtificial(w)) continue;
        if (index[static_cast<size_t>(w)] == -1) {
          dfs.emplace_back(w, 0);
          descended = true;
          break;
        }
        if (on_stack[static_cast<size_t>(w)]) {
          low[static_cast<size_t>(v)] =
              std::min(low[static_cast<size_t>(v)], index[static_cast<size_t>(w)]);
        }
      }
      if (descended) continue;
      // v finished: pop SCC if root.
      if (low[static_cast<size_t>(v)] == index[static_cast<size_t>(v)]) {
        size_t size = 0;
        while (true) {
          NodeId w = stack.back();
          stack.pop_back();
          on_stack[static_cast<size_t>(w)] = false;
          result.comp[static_cast<size_t>(w)] = result.num_comps;
          ++size;
          if (w == v) break;
        }
        comp_size.push_back(size);
        ++result.num_comps;
      }
      NodeId finished = v;
      dfs.pop_back();
      if (!dfs.empty()) {
        NodeId parent = dfs.back().first;
        low[static_cast<size_t>(parent)] =
            std::min(low[static_cast<size_t>(parent)],
                     low[static_cast<size_t>(finished)]);
      }
    }
  }
  result.nontrivial.resize(static_cast<size_t>(result.num_comps));
  for (int cid = 0; cid < result.num_comps; ++cid) {
    result.nontrivial[static_cast<size_t>(cid)] =
        comp_size[static_cast<size_t>(cid)] > 1;
  }
  return result;
}

// Longest distance from v^X to each node (`forward` = true) or from each
// node to v^X (`forward` = false), following real edges; nodes on or
// downstream of a cycle get kInfiniteDistance.
std::vector<int> LongestDistances(const DependencyGraph& g, bool forward) {
  const size_t n = g.NumNodes();
  EMS_DCHECK(g.has_artificial());
  SccResult scc = ComputeScc(g, /*skip_artificial=*/true);

  // Condensation DAG processed in reverse-Tarjan order (Tarjan emits SCCs
  // in reverse topological order of the condensation, i.e. successors
  // before predecessors for forward edges).
  // dist[v] = 1 (the artificial edge) + max over real in-neighbors (resp.
  // out-neighbors) of dist; infinite if v is in/under a nontrivial SCC.
  std::vector<int> dist(n, 0);
  std::vector<bool> infinite(n, false);

  // Process nodes grouped by SCC in topological order. For forward
  // distances, topological order of the condensation = reverse of Tarjan
  // emission order.
  std::vector<std::vector<NodeId>> comp_nodes(
      static_cast<size_t>(scc.num_comps));
  for (NodeId v = 0; v < static_cast<NodeId>(n); ++v) {
    int cid = scc.comp[static_cast<size_t>(v)];
    if (cid >= 0) comp_nodes[static_cast<size_t>(cid)].push_back(v);
  }

  auto neighbors_in = [&](NodeId v) -> const std::vector<NodeId>& {
    return forward ? g.Predecessors(v) : g.Successors(v);
  };

  // Tarjan emits components children-first w.r.t. forward edges, so
  // ascending cid visits successors before predecessors. Forward
  // distances consume predecessor values (process predecessors first:
  // descending); backward distances consume successor values (ascending).
  for (int step = 0; step < scc.num_comps; ++step) {
    int cid = forward ? (scc.num_comps - 1 - step) : step;
    const auto& nodes = comp_nodes[static_cast<size_t>(cid)];
    bool comp_infinite = scc.nontrivial[static_cast<size_t>(cid)];
    int comp_dist = 1;  // at minimum the direct artificial edge
    for (NodeId v : nodes) {
      for (NodeId u : neighbors_in(v)) {
        if (g.IsArtificial(u)) continue;
        int ucid = scc.comp[static_cast<size_t>(u)];
        if (ucid == cid) continue;  // intra-component edge
        if (infinite[static_cast<size_t>(u)]) {
          comp_infinite = true;
        } else {
          comp_dist = std::max(comp_dist, dist[static_cast<size_t>(u)] + 1);
        }
      }
    }
    for (NodeId v : nodes) {
      infinite[static_cast<size_t>(v)] = comp_infinite;
      dist[static_cast<size_t>(v)] =
          comp_infinite ? kInfiniteDistance : comp_dist;
    }
  }
  if (g.has_artificial()) dist[0] = 0;
  return dist;
}

}  // namespace

const std::vector<int>& DependencyGraph::LongestDistancesFromArtificial()
    const {
  if (longest_from_.empty() && !names_.empty()) {
    longest_from_ = LongestDistances(*this, /*forward=*/true);
  }
  return longest_from_;
}

const std::vector<int>& DependencyGraph::LongestDistancesToArtificial() const {
  if (longest_to_.empty() && !names_.empty()) {
    longest_to_ = LongestDistances(*this, /*forward=*/false);
  }
  return longest_to_;
}

namespace {

std::vector<NodeId> Reachable(const DependencyGraph& g, NodeId v,
                              bool reverse) {
  std::vector<bool> seen(g.NumNodes(), false);
  std::vector<NodeId> queue = {v};
  seen[static_cast<size_t>(v)] = true;
  std::vector<NodeId> out;
  while (!queue.empty()) {
    NodeId cur = queue.back();
    queue.pop_back();
    const auto& nbrs = reverse ? g.Predecessors(cur) : g.Successors(cur);
    for (NodeId w : nbrs) {
      if (g.IsArtificial(w)) continue;  // real paths only
      if (seen[static_cast<size_t>(w)]) continue;
      seen[static_cast<size_t>(w)] = true;
      out.push_back(w);
      queue.push_back(w);
    }
  }
  // Exclude v itself unless it lies on a cycle through itself; for the
  // pruning propositions self-reachability is irrelevant, so drop v.
  out.erase(std::remove(out.begin(), out.end(), v), out.end());
  return out;
}

}  // namespace

std::vector<NodeId> DependencyGraph::Ancestors(NodeId v) const {
  EMS_DCHECK(ValidNode(v));
  return Reachable(*this, v, /*reverse=*/true);
}

std::vector<NodeId> DependencyGraph::Descendants(NodeId v) const {
  EMS_DCHECK(ValidNode(v));
  return Reachable(*this, v, /*reverse=*/false);
}

namespace {

CsrAdjacency FlattenAdjacency(const std::vector<std::vector<NodeId>>& nbrs,
                              const std::vector<std::vector<double>>& freqs) {
  CsrAdjacency csr;
  csr.offsets.resize(nbrs.size() + 1, 0);
  size_t total = 0;
  for (size_t v = 0; v < nbrs.size(); ++v) total += nbrs[v].size();
  csr.neighbors.reserve(total);
  csr.frequencies.reserve(total);
  for (size_t v = 0; v < nbrs.size(); ++v) {
    csr.offsets[v] = static_cast<int32_t>(csr.neighbors.size());
    csr.neighbors.insert(csr.neighbors.end(), nbrs[v].begin(), nbrs[v].end());
    csr.frequencies.insert(csr.frequencies.end(), freqs[v].begin(),
                           freqs[v].end());
  }
  csr.offsets[nbrs.size()] = static_cast<int32_t>(csr.neighbors.size());
  return csr;
}

}  // namespace

CsrAdjacency DependencyGraph::ExportPredecessorCsr() const {
  return FlattenAdjacency(pre_, pre_freq_);
}

CsrAdjacency DependencyGraph::ExportSuccessorCsr() const {
  return FlattenAdjacency(post_, post_freq_);
}

std::string DependencyGraph::DebugString() const {
  std::ostringstream out;
  out << "DependencyGraph(" << NumNodes() << " nodes, " << NumEdges()
      << " edges)\n";
  for (NodeId v = 0; v < static_cast<NodeId>(NumNodes()); ++v) {
    out << "  [" << v << "] " << NodeName(v) << " f="
        << FormatDouble(NodeFrequency(v), 3) << " ->";
    const auto& succ = post_[static_cast<size_t>(v)];
    const auto& freq = post_freq_[static_cast<size_t>(v)];
    for (size_t i = 0; i < succ.size(); ++i) {
      out << ' ' << NodeName(succ[i]) << '('
          << FormatDouble(freq[i], 2) << ')';
    }
    out << '\n';
  }
  return out.str();
}

}  // namespace ems
