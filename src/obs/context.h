// The bundle a pipeline run records into: one trace recorder plus one
// metrics registry. Created by whoever wants observability (CLI tools,
// the eval harness, tests) and passed down by pointer; every instrumented
// call site tolerates null, so a default-constructed options struct runs
// with zero instrumentation.
#pragma once

#include <cstdint>
#include <string_view>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace ems {

/// \brief Shared sink for spans and metrics of one pipeline run.
struct ObsContext {
  TraceRecorder trace;
  MetricsRegistry metrics;
};

/// Null-safe counter increment (registry lookup per call: fine at run or
/// iteration granularity; resolve a Counter* once for per-pair loops).
inline void ObsIncrement(ObsContext* obs, std::string_view name,
                         uint64_t n = 1) {
  if (obs != nullptr) obs->metrics.GetCounter(name)->Increment(n);
}

/// Null-safe gauge write.
inline void ObsSetGauge(ObsContext* obs, std::string_view name, double value) {
  if (obs != nullptr) obs->metrics.GetGauge(name)->Set(value);
}

/// Null-safe quantile-histogram observation (log-scale buckets; the one
/// distribution instrument, for latencies and counts alike).
inline void ObsObserveQuantile(ObsContext* obs, std::string_view name,
                               double value) {
  if (obs != nullptr) obs->metrics.GetQuantileHistogram(name)->Observe(value);
}

}  // namespace ems
