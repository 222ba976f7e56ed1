// Incremental dependency-graph construction for the composite search
// (Section 4). DependencyGraph::BuildWithComposites re-scans every trace
// of the log for every candidate the greedy loop evaluates; this builder
// summarizes the log ONCE — distinct-event and distinct-succession sets
// per group of equivalent traces — and aggregates candidate graphs from
// the summary in O(vocabulary + distinct successions) per build.
//
// The output is bit-identical to the trace-scan path: node order, edge
// order, members, and every frequency double match
// DependencyGraph::BuildWithComposites exactly (pinned by
// tests/graph/dependency_graph_builder_test.cc). The equivalence rests on
// two facts about run-collapsing a trace t under the member->composite
// map rho:
//   - the distinct events of collapse(t) are rho(distinct events of t);
//   - the distinct successions of collapse(t) are the image under rho of
//     the distinct successions of t, minus pairs with rho(a) == rho(b)
//     (a maximal run emits no internal succession, and (v, v) pairs never
//     become edges).
// Both are functions of the per-trace distinct sets alone, so traces with
// equal distinct sets can be aggregated with a multiplicity.
#pragma once

#include <atomic>
#include <cstdint>
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

  /// Drop-in replacement for DependencyGraph::BuildWithComposites(log,
  /// composites, options): same graph, bit for bit, same error statuses.
  /// Falls back to the trace-scan path when any event name contains '+'
  /// (the composite display-name separator) — the only case where the
  /// rewritten log's name-interning could alias distinct symbols.
  Result<DependencyGraph> BuildWithComposites(
      const std::vector<std::vector<EventId>>& composites,
      const DependencyGraphOptions& options = {}) const;

  /// Builds completed from the summary (no trace re-scan).
  uint64_t incremental_builds() const {
    return incremental_builds_.load(std::memory_order_relaxed);
  }

  /// Builds delegated to the reference trace-scan path ('+' in a name).
  uint64_t fallback_builds() const {
    return fallback_builds_.load(std::memory_order_relaxed);
  }

  size_t num_traces() const { return num_traces_; }

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
  // EventIds in order of first occurrence over the trace stream — the
  // interning order of the rewritten log's non-composite events. Events
  // never occurring in a trace are absent (they get no node, exactly as
  // in the reference path).
  std::vector<EventId> first_occurrence_;
  std::vector<TraceGroup> groups_;
  // '+' occurs in an event name: composite display names could collide
  // with singleton names under by-name interning; delegate to the
  // reference path instead of reproducing the aliasing arithmetic.
  bool plus_in_names_ = false;

  mutable std::atomic<uint64_t> incremental_builds_{0};
  mutable std::atomic<uint64_t> fallback_builds_{0};
};

}  // namespace ems
