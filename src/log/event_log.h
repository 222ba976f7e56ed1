// Event log substrate: events, traces, and multiset logs (Section 2 of the
// paper). Event names are interned per log into dense EventId integers so
// that graph construction and similarity computation index arrays directly.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/status.h"

namespace ems {

/// Dense per-log identifier of an event class (an activity name).
using EventId = int32_t;

/// Sentinel for "no event".
inline constexpr EventId kInvalidEvent = -1;

/// A trace is a finite sequence of events from the log's vocabulary.
using Trace = std::vector<EventId>;

/// \brief Delta descriptor of one EventLog::AppendTraces call.
///
/// Identifies the appended suffix so a downstream incremental structure
/// (StreamingDependencyGraph) can fold in exactly the new traces instead
/// of rescanning the log.
struct AppendDelta {
  size_t first_new_trace = 0;  ///< Trace count before the append.
  size_t first_new_event = 0;  ///< Vocabulary size before the append.
  size_t appended_traces = 0;  ///< Traces added by this call.
  size_t new_events = 0;       ///< Names interned by this call.
};

/// \brief A multi-set of traces over an interned event vocabulary.
///
/// An event log L is a multiset of traces from V* (paper, Section 2). The
/// same trace may occur many times; we store each occurrence so frequency
/// statistics (Definition 1) are straightforward fractions of traces.
class EventLog {
 public:
  EventLog() = default;

  /// Interns `name`, returning its EventId (existing or fresh).
  EventId AddEvent(std::string_view name);

  /// Returns the EventId for `name`, or kInvalidEvent if absent.
  EventId FindEvent(std::string_view name) const;

  /// The name of event `id`. Requires a valid id.
  const std::string& EventName(EventId id) const {
    EMS_DCHECK(id >= 0 && static_cast<size_t>(id) < names_.size());
    return names_[static_cast<size_t>(id)];
  }

  /// Number of distinct event classes.
  size_t NumEvents() const { return names_.size(); }

  /// Appends a trace given by event names, interning as needed.
  void AddTrace(const std::vector<std::string>& names);

  /// Appends a batch of traces in place, interning new names at the end
  /// of the vocabulary: existing EventIds, trace indices, and names are
  /// all preserved (the appended log is a strict extension — the prefix
  /// property incremental consumers rely on). Returns the delta.
  AppendDelta AppendTraces(
      const std::vector<std::vector<std::string>>& batch);

  /// Appends a trace of already-interned ids. Ids must be valid.
  void AddTraceIds(Trace trace);

  /// Number of traces (multiset cardinality).
  size_t NumTraces() const { return traces_.size(); }

  const Trace& trace(size_t i) const {
    EMS_DCHECK(i < traces_.size());
    return traces_[i];
  }
  const std::vector<Trace>& traces() const { return traces_; }

  /// All event names indexed by EventId.
  const std::vector<std::string>& event_names() const { return names_; }

  /// Total number of event occurrences across all traces.
  size_t TotalOccurrences() const;

  /// Renames event `id` to `name`. The new name must not collide with an
  /// existing different event.
  Status RenameEvent(EventId id, std::string_view name);

  /// Returns a copy of this log whose traces have been transformed by `fn`
  /// (e.g., truncation). The vocabulary is re-interned so events that no
  /// longer occur are dropped; returns the mapping old-id -> new-id
  /// (kInvalidEvent for dropped events) through `id_map` if non-null.
  EventLog TransformTraces(
      const std::vector<Trace>& new_traces,
      std::vector<EventId>* id_map) const;

 private:
  // Hashes std::string and std::string_view alike, so lookups by view
  // build no string.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::vector<std::string> names_;
  std::unordered_map<std::string, EventId, NameHash, std::equal_to<>> index_;
  std::vector<Trace> traces_;
};

/// \brief The event names of a trace still being read, in one buffer.
///
/// Streaming readers add names while a trace is open and append it when
/// it closes, so a trace that never closes interns nothing and the
/// vocabulary keeps first-occurrence order over the traces kept.
class PendingTrace {
 public:
  void Add(std::string_view name) {
    chars_.append(name);
    ends_.push_back(chars_.size());
  }
  void Clear() {
    chars_.clear();
    ends_.clear();
  }
  /// Interns the names in order and appends them to `log` as one trace.
  void AppendTo(EventLog* log) const;

 private:
  std::string chars_;
  std::vector<size_t> ends_;
};

}  // namespace ems
