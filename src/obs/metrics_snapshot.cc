#include "obs/metrics_snapshot.h"

#include <chrono>

#include "util/json_writer.h"

namespace ems {

namespace {

double SteadySeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void WriteHistogramStats(const HistogramStats& h, JsonWriter* w) {
  w->BeginObject();
  w->Key("count");
  w->Int(static_cast<long long>(h.count));
  w->Key("sum");
  w->Number(h.sum);
  w->Key("min");
  w->Number(h.min);
  w->Key("max");
  w->Number(h.max);
  w->Key("p50");
  w->Number(h.p50);
  w->Key("p90");
  w->Number(h.p90);
  w->Key("p99");
  w->Number(h.p99);
  w->EndObject();
}

}  // namespace

MetricsSnapshot CaptureMetricsSnapshot(const MetricsRegistry& registry) {
  MetricsSnapshot snapshot;
  snapshot.at_seconds = SteadySeconds();
  registry.ForEachCounter([&](const std::string& name, const Counter& c) {
    snapshot.counters.emplace(name, c.value());
  });
  registry.ForEachGauge([&](const std::string& name, const Gauge& g) {
    snapshot.gauges.emplace(name, g.value());
  });
  registry.ForEachQuantileHistogram(
      [&](const std::string& name, const QuantileHistogram& h) {
        HistogramStats stats;
        stats.count = h.count();
        stats.sum = h.sum();
        stats.min = h.min_value();
        stats.max = h.max_value();
        stats.p50 = h.Quantile(0.50);
        stats.p90 = h.Quantile(0.90);
        stats.p99 = h.Quantile(0.99);
        snapshot.quantile_histograms.emplace(name, stats);
      });
  return snapshot;
}

std::map<std::string, double> DiffRates(const MetricsSnapshot& prev,
                                        const MetricsSnapshot& cur) {
  std::map<std::string, double> rates;
  const double interval = cur.at_seconds - prev.at_seconds;
  if (interval <= 0.0) return rates;
  for (const auto& [name, value] : cur.counters) {
    auto it = prev.counters.find(name);
    const uint64_t before = it == prev.counters.end() ? 0 : it->second;
    const uint64_t delta = value >= before ? value - before : value;
    rates.emplace(name, static_cast<double>(delta) / interval);
  }
  return rates;
}

void MetricsSnapshot::WriteJson(JsonWriter* w) const {
  w->BeginObject();
  w->Key("at_seconds");
  w->Number(at_seconds);
  w->Key("counters");
  w->BeginObject();
  for (const auto& [name, value] : counters) {
    w->Key(name);
    w->Int(static_cast<long long>(value));
  }
  w->EndObject();
  w->Key("gauges");
  w->BeginObject();
  for (const auto& [name, value] : gauges) {
    w->Key(name);
    if (GaugeValueIsIntegral(value)) {
      w->Int(static_cast<long long>(value));
    } else {
      w->Number(value);
    }
  }
  w->EndObject();
  w->Key("quantile_histograms");
  w->BeginObject();
  for (const auto& [name, stats] : quantile_histograms) {
    w->Key(name);
    WriteHistogramStats(stats, w);
  }
  w->EndObject();
  w->EndObject();
}

}  // namespace ems
