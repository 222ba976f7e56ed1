#include "log/event_log.h"

#include <algorithm>
#include <cstdint>
#include <cstring>

namespace ems {

namespace {

uint64_t Load4(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

uint64_t Load8(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

// The 128-bit product of a and b folded to 64 bits: every output bit
// depends on every input bit.
uint64_t Fold(uint64_t a, uint64_t b) {
  const unsigned __int128 r = static_cast<unsigned __int128>(a) * b;
  return static_cast<uint64_t>(r) ^ static_cast<uint64_t>(r >> 64);
}

// Hash of a name, inline and branch-light for the short names activity
// labels mostly are: eight bytes at a time, with the last eight (or,
// below eight bytes, two overlapping halves) read once.
uint64_t HashName(std::string_view name) {
  constexpr uint64_t kA = 0xa0761d6478bd642full;
  constexpr uint64_t kB = 0xe7037ed1a0b428dbull;
  const char* p = name.data();
  const size_t n = name.size();
  uint64_t h = n ^ kA;
  uint64_t first = 0;
  uint64_t last = 0;
  if (n > 8) {
    size_t i = 0;
    for (; i + 16 < n; i += 8) h = Fold(h ^ Load8(p + i), kB);
    first = Load8(p + i);
    last = Load8(p + n - 8);
  } else if (n >= 4) {
    first = Load4(p);
    last = Load4(p + n - 4);
  } else if (n > 0) {
    first = static_cast<unsigned char>(p[0]) |
            static_cast<uint64_t>(static_cast<unsigned char>(p[n / 2])) << 8;
    last = static_cast<unsigned char>(p[n - 1]);
  }
  return Fold(first ^ kA, last ^ h ^ kB);
}

}  // namespace

size_t EventLog::SlotOf(std::string_view name) const {
  const size_t mask = index_.size() - 1;
  size_t slot = static_cast<size_t>(HashName(name)) & mask;
  while (index_[slot] != kInvalidEvent &&
         names_[static_cast<size_t>(index_[slot])] != name) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

void EventLog::Rehash(size_t slots) {
  index_.assign(slots, kInvalidEvent);
  for (size_t id = 0; id < names_.size(); ++id) {
    index_[SlotOf(names_[id])] = static_cast<EventId>(id);
  }
}

EventId EventLog::AddEvent(std::string_view name) {
  if (2 * (names_.size() + 1) > index_.size()) {
    Rehash(std::max<size_t>(16, 2 * index_.size()));
  }
  const size_t slot = SlotOf(name);
  if (index_[slot] != kInvalidEvent) return index_[slot];
  const EventId id = static_cast<EventId>(names_.size());
  names_.emplace_back(name);
  index_[slot] = id;
  return id;
}

EventId EventLog::FindEvent(std::string_view name) const {
  return index_.empty() ? kInvalidEvent : index_[SlotOf(name)];
}

void EventLog::AddTrace(const std::vector<std::string>& names) {
  Trace t;
  t.reserve(names.size());
  for (const auto& n : names) t.push_back(AddEvent(n));
  traces_.push_back(std::move(t));
}

AppendDelta EventLog::AppendTraces(
    const std::vector<std::vector<std::string>>& batch) {
  AppendDelta delta;
  delta.first_new_trace = traces_.size();
  delta.first_new_event = names_.size();
  delta.appended_traces = batch.size();
  traces_.reserve(traces_.size() + batch.size());
  for (const auto& names : batch) AddTrace(names);
  delta.new_events = names_.size() - delta.first_new_event;
  return delta;
}

void EventLog::AddTraceIds(Trace trace) {
#ifndef NDEBUG
  for (EventId id : trace) {
    EMS_DCHECK(id >= 0 && static_cast<size_t>(id) < names_.size());
  }
#endif
  traces_.push_back(std::move(trace));
}

size_t EventLog::TotalOccurrences() const {
  size_t total = 0;
  for (const auto& t : traces_) total += t.size();
  return total;
}

Status EventLog::RenameEvent(EventId id, std::string_view name) {
  if (id < 0 || static_cast<size_t>(id) >= names_.size()) {
    return Status::OutOfRange("RenameEvent: invalid event id");
  }
  const EventId existing = FindEvent(name);
  if (existing == id) return Status::OK();
  if (existing != kInvalidEvent) {
    return Status::InvalidArgument("RenameEvent: name '" + std::string(name) +
                                   "' already names a different event");
  }
  names_[static_cast<size_t>(id)] = std::string(name);
  Rehash(index_.size());
  return Status::OK();
}

EventLog EventLog::TransformTraces(const std::vector<Trace>& new_traces,
                                   std::vector<EventId>* id_map) const {
  EventLog out;
  std::vector<EventId> map(names_.size(), kInvalidEvent);
  for (const Trace& t : new_traces) {
    Trace mapped;
    mapped.reserve(t.size());
    for (EventId old_id : t) {
      EMS_DCHECK(old_id >= 0 && static_cast<size_t>(old_id) < names_.size());
      EventId& slot = map[static_cast<size_t>(old_id)];
      if (slot == kInvalidEvent) {
        slot = out.AddEvent(names_[static_cast<size_t>(old_id)]);
      }
      mapped.push_back(slot);
    }
    out.AddTraceIds(std::move(mapped));
  }
  if (id_map != nullptr) *id_map = std::move(map);
  return out;
}

void OpenTrace::AppendTo(EventLog* log) const {
  Trace trace;
  trace.reserve(events_.size());
  size_t next = 0;  // the next new name
  size_t begin = 0;
  for (EventId e : events_) {
    if (e == kInvalidEvent) {
      const size_t end = new_ends_[next++];
      e = log->AddEvent(
          std::string_view(new_chars_).substr(begin, end - begin));
      begin = end;
    }
    trace.push_back(e);
  }
  log->AddTraceIds(std::move(trace));
}

}  // namespace ems
