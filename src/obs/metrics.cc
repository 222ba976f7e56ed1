#include "obs/metrics.h"

#include <cmath>

#include "obs/metrics_snapshot.h"
#include "util/json_writer.h"

namespace ems {

bool GaugeValueIsIntegral(double v) {
  // 2^53 bounds exact double integers; beyond it "integral" is a lie.
  return std::isfinite(v) && std::nearbyint(v) == v &&
         std::abs(v) <= 9007199254740992.0;
}

std::string ShardMetricName(std::string_view prefix, int shard,
                            std::string_view name) {
  std::string out(prefix);
  out += '.';
  out += std::to_string(shard);
  out += '.';
  out += name;
  return out;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

QuantileHistogram* MetricsRegistry::GetQuantileHistogram(
    std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = quantile_histograms_.find(name);
  if (it == quantile_histograms_.end()) {
    it = quantile_histograms_
             .emplace(std::string(name), std::make_unique<QuantileHistogram>())
             .first;
  }
  return it->second.get();
}

void MetricsRegistry::ForEachCounter(
    const std::function<void(const std::string&, const Counter&)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, counter] : counters_) fn(name, *counter);
}

void MetricsRegistry::ForEachGauge(
    const std::function<void(const std::string&, const Gauge&)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, gauge] : gauges_) fn(name, *gauge);
}

void MetricsRegistry::ForEachQuantileHistogram(
    const std::function<void(const std::string&, const QuantileHistogram&)>&
        fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, hist] : quantile_histograms_) fn(name, *hist);
}

uint64_t MetricsRegistry::CounterValue(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

size_t MetricsRegistry::NumInstruments() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_.size() + gauges_.size() + quantile_histograms_.size();
}

void MetricsRegistry::WriteJson(JsonWriter* w) const {
  CaptureMetricsSnapshot(*this).WriteJson(w);
}

std::string MetricsRegistry::ToJson() const {
  JsonWriter w;
  WriteJson(&w);
  return w.str();
}

}  // namespace ems
