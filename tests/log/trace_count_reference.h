// The trace-scan Definition-1 counting that LogStats,
// DependencyGraph::Build and StreamingDependencyGraph did before the
// by-id TraceCounter (src/log/trace_counter.h): every trace is
// deduplicated through a std::set of events and a std::set of pairs, and
// pairs are counted in std::maps. It is the counter's equivalence
// reference: same counts, and graphs built from it encode to the same
// snapshot bytes. Test code only; nothing in src/ links it.
#pragma once

#include <cstddef>
#include <map>
#include <utility>
#include <vector>

#include <string>

#include "graph/dependency_graph.h"
#include "log/event_log.h"
#include "log/trace_counter.h"

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

}  // namespace testing
}  // namespace ems
