// Event dependency graph (Definition 1) with the artificial event v^X
// (Section 2) that makes dislocated matching possible, minimum-frequency
// filtering, and the structural quantities the algorithms need: pre/post
// sets, longest distances l(v) from v^X (Proposition 2), and ancestor
// sets (Proposition 4). Graphs with composite events collapsed into one
// node (Section 4) come from DependencyGraphBuilder.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "log/event_log.h"
#include "log/trace_counter.h"
#include "util/status.h"

namespace ems {

namespace store {
struct SnapshotAccess;  // binary snapshot serializer (src/store/snapshot.h)
}  // namespace store

/// Dense node index within a DependencyGraph. Node 0 is always the
/// artificial event v^X when the graph is built with artificial events.
using NodeId = int32_t;

/// l(v) value for nodes on/downstream of a cycle: never early-converges.
inline constexpr int kInfiniteDistance = std::numeric_limits<int>::max();

/// One direction of a graph's adjacency flattened into CSR form: node v's
/// neighbors are `neighbors[offsets[v] .. offsets[v+1])` with the edge
/// frequencies parallel in `frequencies`. Per-node neighbor order is
/// exactly the order of Predecessors()/Successors(), so kernels built on
/// the flat arrays reproduce vector-of-vector traversals bit-identically.
struct CsrAdjacency {
  std::vector<int32_t> offsets;    // size NumNodes() + 1
  std::vector<NodeId> neighbors;   // concatenated per-node lists
  std::vector<double> frequencies; // aligned with `neighbors`

  int32_t Degree(NodeId v) const {
    return offsets[static_cast<size_t>(v) + 1] -
           offsets[static_cast<size_t>(v)];
  }
  /// Total neighbor entries over the real (non-artificial) nodes; they
  /// come last, after the artificial node's. The EMS kernel's panel and
  /// coefficient-table rows hold one slot per real entry of g2.
  int64_t RealEntries(bool has_artificial) const {
    int64_t total = static_cast<int64_t>(neighbors.size());
    if (has_artificial) total -= Degree(0);
    return total;
  }
};

/// Options controlling dependency-graph construction.
struct DependencyGraphOptions {
  /// Adds the artificial event v^X with edges (v^X, v) and (v, v^X)
  /// weighted f(v) for every real event (paper, Section 2). The EMS
  /// similarity requires this; baselines construct graphs without it.
  bool add_artificial_event = true;

  /// Drops real edges with normalized frequency strictly below this
  /// threshold ("minimum frequency control", Section 2 / Figure 7).
  /// Artificial edges are never dropped.
  double min_edge_frequency = 0.0;
};

/// \brief Labeled directed graph G(V, E, f) over the events of one log.
///
/// Vertices carry normalized event frequencies f(v); edges carry the
/// normalized frequency f(v1, v2) of the two events occurring
/// consecutively (both are fractions of traces, Definition 1). Composite
/// events are represented by nodes covering multiple member EventIds.
class DependencyGraph {
 public:
  /// Builds the dependency graph of `log` (Definition 1 + Section 2).
  static DependencyGraph Build(const EventLog& log,
                               const DependencyGraphOptions& options = {});

  /// Constructs a graph directly from explicit data (used by tests that
  /// pin the paper's running-example frequencies, and by generators).
  /// `names[i]` labels node i; edges are (from, to, frequency). If
  /// `options.add_artificial_event` is set, node 0 of the result is v^X
  /// and all given indices shift by one.
  static DependencyGraph FromExplicit(
      const std::vector<std::string>& names,
      const std::vector<double>& node_frequencies,
      const std::vector<std::tuple<NodeId, NodeId, double>>& edges,
      const DependencyGraphOptions& options = {});

  /// Number of nodes, including v^X if present.
  size_t NumNodes() const { return names_.size(); }

  /// Number of directed edges, including artificial ones.
  size_t NumEdges() const;

  /// True if node 0 is the artificial event v^X.
  bool has_artificial() const { return has_artificial_; }

  /// Index of v^X. Requires has_artificial().
  NodeId artificial_node() const {
    EMS_DCHECK(has_artificial_);
    return 0;
  }

  /// True for the artificial node.
  bool IsArtificial(NodeId v) const { return has_artificial_ && v == 0; }

  /// Display label of node `v`; composite nodes show joined member names.
  const std::string& NodeName(NodeId v) const {
    EMS_DCHECK(ValidNode(v));
    return names_[static_cast<size_t>(v)];
  }

  /// Normalized frequency f(v) of node `v`.
  double NodeFrequency(NodeId v) const {
    EMS_DCHECK(ValidNode(v));
    return node_freq_[static_cast<size_t>(v)];
  }

  /// Normalized frequency f(a, b) of edge (a, b); 0 if the edge is absent.
  double EdgeFrequency(NodeId a, NodeId b) const;

  /// True if the edge (a, b) exists.
  bool HasEdge(NodeId a, NodeId b) const { return EdgeFrequency(a, b) > 0.0; }

  /// Pre-set •v: nodes with an edge into `v`.
  const std::vector<NodeId>& Predecessors(NodeId v) const {
    EMS_DCHECK(ValidNode(v));
    return pre_[static_cast<size_t>(v)];
  }

  /// Post-set v•: nodes with an edge out of `v`.
  const std::vector<NodeId>& Successors(NodeId v) const {
    EMS_DCHECK(ValidNode(v));
    return post_[static_cast<size_t>(v)];
  }

  /// Average degree (mean of |v•| over all nodes) — the d_avg of the
  /// complexity analysis in Section 3.2.
  double AverageDegree() const;

  /// The EventIds of the log events this node represents (singleton for
  /// plain events, >1 for composites, empty for v^X).
  const std::vector<EventId>& Members(NodeId v) const {
    EMS_DCHECK(ValidNode(v));
    return members_[static_cast<size_t>(v)];
  }

  /// Longest distance l(v) from v^X to v, ignoring edges into v^X
  /// (Proposition 2). Nodes reachable from a non-trivial SCC get
  /// kInfiniteDistance. l(v^X) = 0. Requires has_artificial().
  /// Computed lazily on first call and cached; the first call must not
  /// race with other accesses — callers sharing a graph across threads
  /// warm the cache first (see EmsSimilarity::Iterate).
  const std::vector<int>& LongestDistancesFromArtificial() const;

  /// Symmetric quantity for backward similarity: longest distance from v
  /// to v^X, ignoring edges out of v^X.
  const std::vector<int>& LongestDistancesToArtificial() const;

  /// AN(v): all ancestors of `v` (nodes with a directed path to v),
  /// excluding v^X and v itself, following real edges only.
  std::vector<NodeId> Ancestors(NodeId v) const;

  /// All descendants of `v` (nodes reachable from v), excluding v^X and v.
  std::vector<NodeId> Descendants(NodeId v) const;

  /// Adjacency of one direction flattened into contiguous CSR arrays —
  /// the form the optimized EMS kernel scans (see docs/PERFORMANCE.md).
  CsrAdjacency ExportPredecessorCsr() const;
  CsrAdjacency ExportSuccessorCsr() const;

  /// Human-readable adjacency dump for debugging.
  std::string DebugString() const;

 private:
  friend class DependencyGraphBuilder;
  friend class StreamingDependencyGraph;  // in-place append maintenance
  friend struct store::SnapshotAccess;

  bool ValidNode(NodeId v) const {
    return v >= 0 && static_cast<size_t>(v) < names_.size();
  }

  // The Definition-1 graph of `log` from its folded counts: node and
  // edge frequencies are count / num_traces, edges in (a, b) order.
  static DependencyGraph FromCounts(const EventLog& log,
                                    const TraceCounter& counts,
                                    const DependencyGraphOptions& options);

  void AddNode(std::string name, double freq, std::vector<EventId> members);
  void AddEdge(NodeId a, NodeId b, double freq);
  void FinalizeArtificial();

  bool has_artificial_ = false;
  std::vector<std::string> names_;
  std::vector<double> node_freq_;
  std::vector<std::vector<EventId>> members_;
  // Adjacency: parallel arrays of neighbor ids and edge frequencies.
  std::vector<std::vector<NodeId>> pre_;
  std::vector<std::vector<double>> pre_freq_;
  std::vector<std::vector<NodeId>> post_;
  std::vector<std::vector<double>> post_freq_;

  mutable std::vector<int> longest_from_;  // lazily computed
  mutable std::vector<int> longest_to_;

 public:
  /// Edge frequency aligned with Predecessors(v): frequency of
  /// (Predecessors(v)[i], v).
  const std::vector<double>& PredecessorFrequencies(NodeId v) const {
    EMS_DCHECK(ValidNode(v));
    return pre_freq_[static_cast<size_t>(v)];
  }
  /// Edge frequency aligned with Successors(v): frequency of
  /// (v, Successors(v)[i]).
  const std::vector<double>& SuccessorFrequencies(NodeId v) const {
    EMS_DCHECK(ValidNode(v));
    return post_freq_[static_cast<size_t>(v)];
  }
};

}  // namespace ems
