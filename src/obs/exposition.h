// Prometheus-style text exposition of a MetricsRegistry — the scrape
// format alongside the existing JSON export. Counters render as
// `<name>_total`, gauges as plain samples, and quantile histograms (the
// registry's one distribution kind) as summaries with
// `{quantile="0.5"|"0.9"|"0.99"}` sample lines plus `_sum`/`_count`; no
// `histogram`-typed family is emitted. Metric names are
// sanitized to [a-zA-Z_][a-zA-Z0-9_]* (dots become underscores), and
// integer-valued gauges print as integers, never scientific notation.
// The format is linted in CI by scripts/check_exposition.py.
#pragma once

#include <string>
#include <string_view>

namespace ems {

class MetricsRegistry;

/// `raw` mapped into the Prometheus metric-name alphabet: every
/// character outside [a-zA-Z0-9_] becomes '_', and a leading digit is
/// prefixed with '_'.
std::string SanitizeMetricName(std::string_view raw);

/// The whole registry in text exposition format, terminated by a final
/// newline. Deterministic: instruments appear in sorted name order.
std::string RenderExpositionText(const MetricsRegistry& registry);

}  // namespace ems
