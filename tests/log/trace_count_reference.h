// The trace-scan Definition-1 counting that LogStats,
// DependencyGraph::Build and StreamingDependencyGraph did before the
// by-id TraceCounter (src/log/trace_counter.h): every trace is
// deduplicated through a std::set of events and a std::set of pairs, and
// pairs are counted in std::maps. It is the counter's equivalence
// reference: same counts, and graphs built from it encode to the same
// snapshot bytes.
//
// It also holds the string-rewriting composite build that
// DependencyGraphBuilder (src/graph/dependency_graph_builder.h) replaced:
// every trace is rewritten by name with each composite's runs collapsed,
// and the rewritten log is counted as above. Test code only; nothing in
// src/ links it.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "graph/dependency_graph.h"
#include "log/event_log.h"
#include "log/trace_counter.h"
#include "util/status.h"

namespace ems {
namespace testing {

/// Trace and occurrence counts of every event and ordered pair.
struct ReferenceTraceCounts {
  size_t num_traces = 0;
  std::vector<size_t> event_traces;       // indexed by EventId
  std::vector<size_t> event_occurrences;  // indexed by EventId
  std::map<std::pair<EventId, EventId>, size_t> follows_traces;
  std::map<std::pair<EventId, EventId>, size_t> follows_occurrences;
};

/// Counts every trace of `log`.
ReferenceTraceCounts CountByTraceScan(const EventLog& log);

/// Empty when `got` holds exactly `want`'s counts: the trace total, every
/// event's trace and occurrence counts, and every pair's, with the sorted
/// readout in std::map order and absent pairs reading zero. Otherwise
/// the first difference, described.
std::string CountsDifference(const TraceCounter& got,
                             const ReferenceTraceCounts& want);

/// DependencyGraph::Build over the reference counts: node frequencies
/// count/num_traces in EventId order, real edges in std::map order.
DependencyGraph BuildByTraceScan(const EventLog& log,
                                 const DependencyGraphOptions& options = {});

/// A composite-collapsed graph from the string-rewriting scan. The graph's
/// own Members() index the rewritten log; `members` holds each node's
/// original EventIds, since test code cannot set a graph's members.
struct RewrittenGraph {
  DependencyGraph graph;
  std::vector<std::vector<EventId>> members;  // indexed by NodeId
};

/// Rewrites every trace of `log` by name: a maximal run of one
/// composite's members becomes one event named by its members' names
/// joined with '+' in id order; composites are interned first, in
/// `composites` order, then other events as the traces meet them. The
/// rewritten log is counted by BuildByTraceScan. Names alias: an event
/// whose own name equals a composite's joined name becomes that
/// composite's node. InvalidArgument for an empty composite, an invalid
/// id or overlapping composites, with DependencyGraphBuilder's messages.
Result<RewrittenGraph> BuildWithCompositesByTraceScan(
    const EventLog& log, const std::vector<std::vector<EventId>>& composites,
    const DependencyGraphOptions& options = {});

/// Empty when `got` equals `want` byte for byte: v^X, node order, names,
/// members, the bits of every frequency, and both adjacency lists with
/// their frequency bits. Otherwise the first difference, described.
std::string GraphDifference(const DependencyGraph& got,
                            const RewrittenGraph& want);

/// GraphDifference of `got` against BuildWithCompositesByTraceScan(log,
/// composites, options); a failed scan is described by its status.
std::string TraceScanDifference(
    const DependencyGraph& got, const EventLog& log,
    const std::vector<std::vector<EventId>>& composites,
    const DependencyGraphOptions& options = {});

}  // namespace testing
}  // namespace ems
