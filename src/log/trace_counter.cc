#include "log/trace_counter.h"

#include <algorithm>
#include <bit>

namespace ems {

namespace {

uint64_t Pack(EventId a, EventId b) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
         static_cast<uint32_t>(b);
}

}  // namespace

size_t TraceCounter::Home(uint64_t key) const {
  // Fibonacci hashing: the top bits of key * 2^64/phi.
  return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
}

const TraceCounter::PairSlot* TraceCounter::Find(uint64_t key) const {
  if (slots_.empty()) return nullptr;
  const size_t mask = slots_.size() - 1;
  for (size_t i = Home(key);; i = (i + 1) & mask) {
    const PairSlot& slot = slots_[i];
    if (slot.key == key) return &slot;
    if (slot.key == kEmptyKey) return nullptr;
  }
}

TraceCounter::Counts& TraceCounter::FindOrInsert(uint64_t key) {
  const size_t mask = slots_.size() - 1;
  for (size_t i = Home(key);; i = (i + 1) & mask) {
    PairSlot& slot = slots_[i];
    if (slot.key == key) return slot.counts;
    if (slot.key != kEmptyKey) continue;
    if (2 * (num_pairs_ + 1) > slots_.size()) {
      Grow();
      return FindOrInsert(key);
    }
    ++num_pairs_;
    slot.key = key;
    return slot.counts;
  }
}

void TraceCounter::Grow() {
  std::vector<PairSlot> old = std::move(slots_);
  const size_t capacity = std::max<size_t>(64, 2 * old.size());
  slots_.assign(capacity, PairSlot{});
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
  const size_t mask = capacity - 1;
  for (const PairSlot& slot : old) {
    if (slot.key == kEmptyKey) continue;
    size_t i = Home(slot.key);
    while (slots_[i].key != kEmptyKey) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

void TraceCounter::Add(const EventLog& log, size_t first_trace,
                       size_t end_trace) {
  EMS_DCHECK(first_trace <= end_trace && end_trace <= log.NumTraces());
  if (events_.size() < log.NumEvents()) events_.resize(log.NumEvents());
  if (slots_.empty()) Grow();
  for (size_t ti = first_trace; ti < end_trace; ++ti) {
    const Trace& t = log.trace(ti);
    const size_t stamp = ++num_traces_;
    for (size_t i = 0; i < t.size(); ++i) {
      events_[static_cast<size_t>(t[i])].Count(stamp);
      if (i + 1 < t.size()) FindOrInsert(Pack(t[i], t[i + 1])).Count(stamp);
    }
  }
}

size_t TraceCounter::FollowsTraceCount(EventId a, EventId b) const {
  const PairSlot* slot = Find(Pack(a, b));
  return slot == nullptr ? 0 : slot->counts.traces;
}

size_t TraceCounter::FollowsOccurrences(EventId a, EventId b) const {
  const PairSlot* slot = Find(Pack(a, b));
  return slot == nullptr ? 0 : slot->counts.occurrences;
}

std::vector<FollowsCount> TraceCounter::SortedFollows(
    size_t since_trace) const {
  std::vector<FollowsCount> out;
  for (const PairSlot& slot : slots_) {
    if (slot.key == kEmptyKey || slot.counts.last_trace <= since_trace) {
      continue;
    }
    out.push_back(FollowsCount{static_cast<EventId>(slot.key >> 32),
                               static_cast<EventId>(slot.key & 0xFFFFFFFFu),
                               slot.counts.traces, slot.counts.occurrences});
  }
  std::sort(out.begin(), out.end(),
            [](const FollowsCount& x, const FollowsCount& y) {
              return x.a != y.a ? x.a < y.a : x.b < y.b;
            });
  return out;
}

}  // namespace ems
