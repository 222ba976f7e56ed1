// Frequency statistics over an event log: the raw material of the
// dependency graph (Definition 1). Normalized frequencies are fractions of
// traces, matching the paper exactly:
//   f(v)      = fraction of traces in L that contain v
//   f(v1,v2)  = fraction of traces in which v1 v2 occur consecutively at
//               least once
// The counts come from one TraceCounter pass (log/trace_counter.h), the
// counter DependencyGraph::Build and the streaming graph read too.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "log/event_log.h"
#include "log/trace_counter.h"

namespace ems {

/// \brief Per-log occurrence and direct-follows statistics.
class LogStats {
 public:
  /// Direct-follows pairs with their trace counts, in lexicographic
  /// (a, b) order.
  using FollowsTraceCounts =
      std::vector<std::pair<std::pair<EventId, EventId>, size_t>>;

  /// Computes statistics over `log` in a single pass.
  explicit LogStats(const EventLog& log);

  /// Fraction of traces containing event `v` (f(v) in Definition 1).
  double EventFrequency(EventId v) const;

  /// Fraction of traces where `a` is immediately followed by `b` at least
  /// once (f(a,b) in Definition 1).
  double FollowsFrequency(EventId a, EventId b) const;

  /// Number of traces containing `v`.
  size_t EventTraceCount(EventId v) const {
    return counts_.EventTraceCount(v);
  }

  /// Number of traces where `a b` occur consecutively at least once.
  size_t FollowsTraceCount(EventId a, EventId b) const {
    return counts_.FollowsTraceCount(a, b);
  }

  /// Total occurrences of `v` across all traces (may exceed trace count).
  size_t EventOccurrences(EventId v) const {
    return counts_.EventOccurrences(v);
  }

  /// Total occurrences of the bigram `a b` across all traces.
  size_t FollowsOccurrences(EventId a, EventId b) const {
    return counts_.FollowsOccurrences(a, b);
  }

  /// All direct-follows pairs with a nonzero trace count.
  const FollowsTraceCounts& follows_trace_counts() const {
    return follows_trace_counts_;
  }

  size_t num_traces() const { return counts_.num_traces(); }
  size_t num_events() const { return counts_.num_events(); }

  /// P(next = b | current = a): conditional direct-follows probability,
  /// based on occurrence counts (used by the Markov-style baselines).
  double ConditionalFollows(EventId a, EventId b) const;

 private:
  TraceCounter counts_;
  FollowsTraceCounts follows_trace_counts_;
};

}  // namespace ems
