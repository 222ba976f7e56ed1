// Point-in-time capture of a MetricsRegistry plus interval diffing:
// counters are monotonic, so the difference of two snapshots divided by
// the interval is a rate (jobs/s, bytes/s) — the quantity operators
// actually watch on a long-lived service. A snapshot is plain data
// (maps of values), safe to hold, compare, and serialize after the
// registry has moved on.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "obs/metrics.h"

namespace ems {

class JsonWriter;

/// Digest of one quantile histogram at capture time.
struct HistogramStats {
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

/// \brief All instrument values of a registry at one instant.
struct MetricsSnapshot {
  /// Monotonic capture time in seconds (steady clock since process
  /// start); the denominator of DiffRates.
  double at_seconds = 0.0;

  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramStats> quantile_histograms;

  /// Emits this snapshot as one JSON object value: {"at_seconds": ..,
  /// "counters": {..}, "gauges": {..}, "quantile_histograms": {name:
  /// {"count", "sum", "min", "max", "p50", "p90", "p99"}}}. The one
  /// writer of a registry: `--metrics-out` reports and the stats
  /// command's "snapshot" both come from here. Integer-valued gauges
  /// render as integers.
  void WriteJson(JsonWriter* w) const;
};

/// Captures every instrument of `registry` now.
MetricsSnapshot CaptureMetricsSnapshot(const MetricsRegistry& registry);

/// Counter rates between two snapshots, in events per second, keyed by
/// counter name. Counters present only in `cur` count from zero. A
/// counter that moved backwards (the registry was reset between the
/// snapshots) rates as cur/interval — a restart, never a negative rate.
/// Empty when the interval is not positive.
std::map<std::string, double> DiffRates(const MetricsSnapshot& prev,
                                        const MetricsSnapshot& cur);

}  // namespace ems
