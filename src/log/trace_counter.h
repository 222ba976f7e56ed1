// The one Definition-1 counter. For every event and every ordered
// direct-follows pair — (a, a) included — it counts the traces that
// contain it at least once, and its total occurrences. Everything
// Definition 1 weighs is one of these counts over the number of traces:
//   f(v)     = EventTraceCount(v)     / num_traces()
//   f(v1,v2) = FollowsTraceCount(v1,v2) / num_traces()
//
// Counting is by id. Each event and each pair carries the stamp of the
// last trace that counted it, so a repeat inside one trace costs one
// compare instead of a per-trace set. Pairs live in an open-addressing
// hash keyed by the packed pair; one sort reads them out in
// lexicographic (a, b) order, the order DependencyGraph::Build adds
// edges in. Folding is append-only: folding a log in any contiguous
// splits gives the same counts as folding it once. DependencyGraph::Build,
// LogStats and StreamingDependencyGraph all read this type
// (docs/PERFORMANCE.md, "Definition-1 counting").
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "log/event_log.h"

namespace ems {

/// Counts of one ordered direct-follows pair `a b`.
struct FollowsCount {
  EventId a = kInvalidEvent;
  EventId b = kInvalidEvent;
  size_t traces = 0;       ///< Traces containing `a b` at least once.
  size_t occurrences = 0;  ///< Occurrences of `a b` across all traces.
};

/// \brief Per-event and per-pair trace and occurrence counts with append
/// semantics.
class TraceCounter {
 public:
  /// Folds traces [first_trace, end_trace) of `log` in, after every trace
  /// folded so far. The vocabulary grows to log.NumEvents(); EventIds must
  /// keep their meaning across calls (EventLog::AppendTraces guarantees
  /// this for a growing log).
  void Add(const EventLog& log, size_t first_trace, size_t end_trace);

  /// Folds every trace of `log`.
  void Add(const EventLog& log) { Add(log, 0, log.NumTraces()); }

  /// Traces folded so far.
  size_t num_traces() const { return num_traces_; }
  /// Vocabulary size seen so far.
  size_t num_events() const { return events_.size(); }

  size_t EventTraceCount(EventId v) const { return Event(v).traces; }
  size_t EventOccurrences(EventId v) const { return Event(v).occurrences; }
  size_t FollowsTraceCount(EventId a, EventId b) const;
  size_t FollowsOccurrences(EventId a, EventId b) const;

  /// The pairs counted by any trace after the first `since_trace` folded
  /// ones, in lexicographic (a, b) order. `since_trace = 0` reads every
  /// pair; `since_trace = num_traces()` before an Add reads the pairs that
  /// Add touched.
  std::vector<FollowsCount> SortedFollows(size_t since_trace = 0) const;

 private:
  struct Counts {
    size_t traces = 0;
    size_t occurrences = 0;
    size_t last_trace = 0;  // 1-based number of the last trace counted

    // One occurrence inside trace number `stamp`: the trace count moves
    // only on the first occurrence in that trace.
    void Count(size_t stamp) {
      ++occurrences;
      if (last_trace != stamp) {
        last_trace = stamp;
        ++traces;
      }
    }
  };
  // Event ids are non-negative, so no real pair packs to all ones, and
  // packed keys sort in lexicographic (a, b) order.
  static constexpr uint64_t kEmptyKey = ~uint64_t{0};
  struct PairSlot {
    uint64_t key = kEmptyKey;
    Counts counts;
  };

  const Counts& Event(EventId v) const {
    EMS_DCHECK(v >= 0 && static_cast<size_t>(v) < events_.size());
    return events_[static_cast<size_t>(v)];
  }
  size_t Home(uint64_t key) const;
  const PairSlot* Find(uint64_t key) const;
  Counts& FindOrInsert(uint64_t key);
  void Grow();

  size_t num_traces_ = 0;
  size_t num_pairs_ = 0;
  std::vector<Counts> events_;
  std::vector<PairSlot> slots_;  // power-of-two capacity, load <= 1/2
  unsigned shift_ = 64;          // 64 - log2(slots_.size())
};

}  // namespace ems
