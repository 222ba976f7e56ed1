#include "obs/exposition.h"

#include <cctype>
#include <cinttypes>
#include <cstdio>

#include "obs/metrics.h"

namespace ems {

namespace {

void AppendValue(std::string* out, double v) {
  char buf[64];
  if (GaugeValueIsIntegral(v)) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.12g", v);
  }
  *out += buf;
}

void AppendSample(std::string* out, const std::string& name,
                  std::string_view labels, double value) {
  *out += name;
  if (!labels.empty()) {
    *out += '{';
    *out += labels;
    *out += '}';
  }
  *out += ' ';
  AppendValue(out, value);
  *out += '\n';
}

void AppendType(std::string* out, const std::string& name, const char* type) {
  *out += "# TYPE ";
  *out += name;
  *out += ' ';
  *out += type;
  *out += '\n';
}

}  // namespace

std::string SanitizeMetricName(std::string_view raw) {
  std::string out;
  out.reserve(raw.size() + 1);
  for (char c : raw) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) || c == '_';
    out.push_back(ok ? c : '_');
  }
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out.front()))) {
    out.insert(out.begin(), '_');
  }
  return out;
}

std::string RenderExpositionText(const MetricsRegistry& registry) {
  std::string out;
  registry.ForEachCounter([&](const std::string& raw, const Counter& c) {
    const std::string name = SanitizeMetricName(raw) + "_total";
    AppendType(&out, name, "counter");
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, c.value());
    out += name;
    out += ' ';
    out += buf;
    out += '\n';
  });
  registry.ForEachGauge([&](const std::string& raw, const Gauge& g) {
    const std::string name = SanitizeMetricName(raw);
    AppendType(&out, name, "gauge");
    AppendSample(&out, name, "", g.value());
  });
  registry.ForEachQuantileHistogram(
      [&](const std::string& raw, const QuantileHistogram& h) {
        const std::string name = SanitizeMetricName(raw);
        AppendType(&out, name, "summary");
        AppendSample(&out, name, "quantile=\"0.5\"", h.Quantile(0.50));
        AppendSample(&out, name, "quantile=\"0.9\"", h.Quantile(0.90));
        AppendSample(&out, name, "quantile=\"0.99\"", h.Quantile(0.99));
        AppendSample(&out, name + "_sum", "", h.sum());
        AppendSample(&out, name + "_count", "", static_cast<double>(h.count()));
      });
  return out;
}

}  // namespace ems
