// Composite-collapsed dependency graphs (Section 4: a composite event is
// "one node in constructing the dependency graph"). The greedy search
// builds one graph per candidate it evaluates; this builder summarizes
// the log ONCE — distinct-event and distinct-succession sets per group of
// equivalent traces — and aggregates each candidate graph from the
// summary in O(vocabulary + distinct successions) per build.
//
// A build equals run-collapsing every trace under the member->composite
// map rho and counting Definition 1 on the result. Two facts about
// collapse(t) make the summary sufficient:
//   - the distinct events of collapse(t) are rho(distinct events of t);
//   - the distinct successions of collapse(t) are the image under rho of
//     the distinct successions of t, minus pairs with rho(a) == rho(b)
//     (a maximal run emits no internal succession, and (v, v) pairs never
//     become edges).
// Both are functions of the per-trace distinct sets alone, so traces with
// equal distinct sets can be aggregated with a multiplicity. Nodes are
// resolved by EventId, never by name: an event whose own name is "a+b"
// keeps its node next to a composite {a, b}. The string-rewriting trace
// scan this replaces is the test-only reference in
// tests/log/trace_count_reference.h; tests/graph/
// dependency_graph_builder_test.cc pins the two to the same bytes.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "graph/dependency_graph.h"
#include "log/event_log.h"
#include "util/status.h"

namespace ems {

/// \brief Per-log summary that builds composite-collapsed dependency
/// graphs without re-scanning traces.
///
/// Construction scans the log once; BuildWithComposites is then const and
/// thread-safe (candidate evaluations of one greedy step share a builder
/// across workers). The log is borrowed and must outlive the builder.
class DependencyGraphBuilder {
 public:
  explicit DependencyGraphBuilder(const EventLog& log);

  /// The graph of the log after collapsing each composite in
  /// `composites` (disjoint sets of EventIds) into a single node: maximal
  /// runs of a composite's members occurring consecutively in a trace
  /// become one occurrence of the composite event. Composite nodes come
  /// first, in `composites` order, named by their members' names joined
  /// with '+' in id order; then every other event that occurs in a
  /// trace, in order of first occurrence. Edges are in (a, b) order and
  /// every frequency is count / num_traces.
  ///
  /// Returns InvalidArgument if a composite is empty, composites overlap,
  /// or an id is invalid.
  Result<DependencyGraph> BuildWithComposites(
      const std::vector<std::vector<EventId>>& composites,
      const DependencyGraphOptions& options = {}) const;

  /// Distinct (event set, succession set) classes found; the per-build
  /// work is proportional to their total size, not the log's.
  size_t num_trace_groups() const { return groups_.size(); }

 private:
  // One class of traces sharing distinct-event and distinct-succession
  // sets; `multiplicity` counts the traces in the class.
  struct TraceGroup {
    std::vector<EventId> events;                           // sorted
    std::vector<std::pair<EventId, EventId>> successions;  // sorted, a != b
    size_t multiplicity = 0;
  };

  const EventLog& log_;
  size_t num_traces_ = 0;
  // EventIds in order of first occurrence over the trace stream: the node
  // order of the events no composite covers. Events never occurring in a
  // trace are absent and get no node.
  std::vector<EventId> first_occurrence_;
  std::vector<TraceGroup> groups_;
};

}  // namespace ems
