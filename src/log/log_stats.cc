#include "log/log_stats.h"

namespace ems {

LogStats::LogStats(const EventLog& log) {
  counts_.Add(log);
  std::vector<FollowsCount> pairs = counts_.SortedFollows();
  follows_trace_counts_.reserve(pairs.size());
  for (const FollowsCount& p : pairs) {
    follows_trace_counts_.push_back({{p.a, p.b}, p.traces});
  }
}

double LogStats::EventFrequency(EventId v) const {
  if (num_traces() == 0) return 0.0;
  return static_cast<double>(EventTraceCount(v)) /
         static_cast<double>(num_traces());
}

double LogStats::FollowsFrequency(EventId a, EventId b) const {
  if (num_traces() == 0) return 0.0;
  return static_cast<double>(FollowsTraceCount(a, b)) /
         static_cast<double>(num_traces());
}

double LogStats::ConditionalFollows(EventId a, EventId b) const {
  size_t occ = EventOccurrences(a);
  if (occ == 0) return 0.0;
  return static_cast<double>(FollowsOccurrences(a, b)) /
         static_cast<double>(occ);
}

}  // namespace ems
