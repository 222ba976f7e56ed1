// Pipeline metrics: named counters, gauges, and log-scale quantile
// histograms (quantile_histogram.h, the one distribution kind) behind a
// registry. Increments are lock-free (std::atomic, relaxed) so
// instruments can live in hot loops; the registry itself takes a mutex
// only on name lookup, so hot paths should resolve their instrument once
// and increment through the pointer (instruments are never deallocated
// while the registry lives).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/quantile_histogram.h"

namespace ems {

class JsonWriter;

/// Monotonically increasing event count (EMS iterations, pruned pairs,
/// candidates evaluated, ...).
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }

  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-written value (graph sizes, objective values, ...).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }

  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// True when a gauge value should render as an integer (queue depths,
/// byte counts): integral and exactly representable, so neither JSON nor
/// exposition output ever shows `3e+09` for a byte gauge.
bool GaugeValueIsIntegral(double v);

/// The per-shard metric naming convention of the sharded service:
/// `<prefix>.<shard>.<name>` (e.g. "serve.shard.0.routed", exposed as
/// serve_shard_0_routed_total). One blessed spot so the router, the
/// dashboard, and the CI exposition checks can never drift apart.
std::string ShardMetricName(std::string_view prefix, int shard,
                            std::string_view name);

/// \brief Owns all named instruments of one pipeline run.
///
/// Get* returns a stable pointer, creating the instrument on first use;
/// names are exported in sorted order so JSON output is deterministic.
/// Thread-safe.
class MetricsRegistry {
 public:
  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);

  /// The distribution instrument (latencies, iteration counts, queue
  /// depths), with the default log-scale bucket layout.
  QuantileHistogram* GetQuantileHistogram(std::string_view name);

  /// The counter's current value, or 0 when it was never created.
  uint64_t CounterValue(std::string_view name) const;

  size_t NumInstruments() const;

  // Enumeration in sorted name order, for snapshot capture and text
  // exposition. The callback runs under the registry mutex: it must not
  // call back into the registry. Instrument reads are lock-free, so
  // holding the mutex does not stall Observe/Increment on other threads.
  void ForEachCounter(
      const std::function<void(const std::string&, const Counter&)>& fn) const;
  void ForEachGauge(
      const std::function<void(const std::string&, const Gauge&)>& fn) const;
  void ForEachQuantileHistogram(
      const std::function<void(const std::string&, const QuantileHistogram&)>&
          fn) const;

  /// Emits CaptureMetricsSnapshot(*this) through MetricsSnapshot::WriteJson
  /// as one JSON object value (the caller provides the surrounding key),
  /// so a report and a stats response render the registry alike.
  void WriteJson(JsonWriter* w) const;

  /// Convenience: the WriteJson document as a standalone string.
  std::string ToJson() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<QuantileHistogram>, std::less<>>
      quantile_histograms_;
};

}  // namespace ems
