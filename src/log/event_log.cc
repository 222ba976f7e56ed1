#include "log/event_log.h"

namespace ems {

EventId EventLog::AddEvent(std::string_view name) {
  auto it = index_.find(name);
  if (it != index_.end()) return it->second;
  EventId id = static_cast<EventId>(names_.size());
  names_.emplace_back(name);
  index_.emplace(names_.back(), id);
  return id;
}

EventId EventLog::FindEvent(std::string_view name) const {
  auto it = index_.find(name);
  return it == index_.end() ? kInvalidEvent : it->second;
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
  std::string new_name(name);
  auto it = index_.find(new_name);
  if (it != index_.end()) {
    if (it->second == id) return Status::OK();
    return Status::InvalidArgument("RenameEvent: name '" + new_name +
                                   "' already names a different event");
  }
  index_.erase(names_[static_cast<size_t>(id)]);
  names_[static_cast<size_t>(id)] = new_name;
  index_.emplace(std::move(new_name), id);
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

void PendingTrace::AppendTo(EventLog* log) const {
  Trace trace;
  trace.reserve(ends_.size());
  size_t begin = 0;
  for (size_t end : ends_) {
    trace.push_back(
        log->AddEvent(std::string_view(chars_).substr(begin, end - begin)));
    begin = end;
  }
  log->AddTraceIds(std::move(trace));
}

}  // namespace ems
