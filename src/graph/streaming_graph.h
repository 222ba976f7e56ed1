// Incremental dependency-graph maintenance for streaming ingestion
// (docs/STREAMING.md). A batch of appended traces changes the graph in
// two very different ways:
//   * structurally, it is sparse — only direct-follows pairs whose trace
//     count crossed zero (or crossed the minimum-frequency threshold as
//     the denominator grew) add or remove edges, and only new vocabulary
//     adds nodes;
//   * numerically, it is dense — every normalized frequency is a count
//     divided by the trace total, so one appended trace rescales every
//     node and edge weight.
// StreamingDependencyGraph therefore folds every trace once into a
// TraceCounter (log/trace_counter.h), the counter DependencyGraph::Build
// reads, and keeps it. Per append it patches both adjacency directions
// in place for the pairs the batch touched (read out sorted, so no hash
// order reaches the graph), rewrites the frequency doubles with the
// exact count/num_traces divisions Build uses. Both longest-distance
// caches are filled from construction on; a structural delta (an edge
// added or removed, a new node) recomputes them with DependencyGraph's
// one derivation, and a purely numeric one leaves them as they are.
// The maintained graph is bit-identical to DependencyGraph::Build over
// the extended log — node order, edge order, every double, and both
// distance caches (pinned by tests/graph/streaming_graph_test.cc and the
// append-sequence fuzz in tests/property/streaming_property_test.cc).
#pragma once

#include <cstddef>
#include <vector>

#include "graph/dependency_graph.h"
#include "log/event_log.h"
#include "log/trace_counter.h"

namespace ems {

/// Per-append maintenance report (feeds the stream.* serve metrics).
struct StreamingGraphStats {
  size_t appended_traces = 0;
  size_t new_nodes = 0;
  /// Real edges inserted (new pairs, or pairs that crossed the
  /// minimum-frequency threshold upward).
  size_t added_edges = 0;
  /// Real edges dropped (frequency fell below the threshold as the
  /// trace denominator grew).
  size_t removed_edges = 0;
  /// Longest-distance cache rows whose value the append changed, across
  /// both directions (a new node's rows count); 0 after a purely numeric
  /// delta, since distances depend on structure only.
  size_t distance_rows_invalidated = 0;
};

/// \brief Owns a DependencyGraph kept incrementally in sync with a
/// growing EventLog.
///
/// The log is borrowed and must outlive this object; it must only grow
/// through EventLog::AppendTraces between ApplyAppend calls (strict
/// extension — existing trace indices and EventIds unchanged). Not
/// thread-safe; callers serialize appends against readers of graph()
/// (the serve layer holds a per-session lock).
class StreamingDependencyGraph {
 public:
  explicit StreamingDependencyGraph(const EventLog& log,
                                    const DependencyGraphOptions& options = {});

  /// Folds traces [first_new_trace, log.NumTraces()) into the graph.
  /// `first_new_trace` is AppendDelta::first_new_trace of the
  /// corresponding EventLog::AppendTraces call (appends may be coalesced:
  /// folding two batches at once is equivalent to folding them one by
  /// one).
  StreamingGraphStats ApplyAppend(size_t first_new_trace);

  /// The maintained graph. Valid until the next ApplyAppend. With the
  /// artificial event both distance caches are filled, so readers under
  /// a shared lock never write to it.
  const DependencyGraph& graph() const { return graph_; }

  size_t num_traces() const { return counts_.num_traces(); }
  const DependencyGraphOptions& options() const { return options_; }

 private:
  const EventLog& log_;
  DependencyGraphOptions options_;
  DependencyGraph graph_;
  // Cumulative Definition-1 counts of every trace folded so far.
  TraceCounter counts_;
};

}  // namespace ems
