#include "obs/exposition.h"

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace ems {
namespace {

TEST(SanitizeMetricNameTest, MapsDotsAndDashesToUnderscores) {
  EXPECT_EQ(SanitizeMetricName("serve.jobs_ok"), "serve_jobs_ok");
  EXPECT_EQ(SanitizeMetricName("a-b.c d"), "a_b_c_d");
  EXPECT_EQ(SanitizeMetricName("plain"), "plain");
}

TEST(SanitizeMetricNameTest, LeadingDigitGetsPrefixed) {
  EXPECT_EQ(SanitizeMetricName("5xx.count"), "_5xx_count");
  EXPECT_EQ(SanitizeMetricName(""), "_");
}

TEST(ExpositionTest, CountersEndInTotalWithTypeLine) {
  MetricsRegistry registry;
  registry.GetCounter("serve.jobs_ok")->Increment(42);
  const std::string text = RenderExpositionText(registry);
  EXPECT_NE(text.find("# TYPE serve_jobs_ok_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("serve_jobs_ok_total 42\n"), std::string::npos);
  // TYPE precedes the sample.
  EXPECT_LT(text.find("# TYPE serve_jobs_ok_total"),
            text.find("serve_jobs_ok_total 42"));
}

TEST(ExpositionTest, IntegralGaugesPrintWithoutExponent) {
  MetricsRegistry registry;
  registry.GetGauge("pool.threads")->Set(16.0);
  registry.GetGauge("big.value")->Set(123456789012.0);
  registry.GetGauge("load")->Set(0.5);
  const std::string text = RenderExpositionText(registry);
  EXPECT_NE(text.find("pool_threads 16\n"), std::string::npos);
  EXPECT_NE(text.find("big_value 123456789012\n"), std::string::npos);
  EXPECT_EQ(text.find("e+"), std::string::npos);
  EXPECT_NE(text.find("load 0.5\n"), std::string::npos);
}

TEST(ExpositionTest, QuantileHistogramsRenderAsSummaries) {
  MetricsRegistry registry;
  QuantileHistogram* q = registry.GetQuantileHistogram("serve.latency_ms.ok");
  for (int i = 1; i <= 100; ++i) q->Observe(static_cast<double>(i));
  const std::string text = RenderExpositionText(registry);
  EXPECT_NE(text.find("# TYPE serve_latency_ms_ok summary\n"),
            std::string::npos);
  EXPECT_NE(text.find("serve_latency_ms_ok{quantile=\"0.5\"} "),
            std::string::npos);
  EXPECT_NE(text.find("serve_latency_ms_ok{quantile=\"0.9\"} "),
            std::string::npos);
  EXPECT_NE(text.find("serve_latency_ms_ok{quantile=\"0.99\"} "),
            std::string::npos);
  EXPECT_NE(text.find("serve_latency_ms_ok_count 100\n"), std::string::npos);
  EXPECT_NE(text.find("serve_latency_ms_ok_sum 5050\n"), std::string::npos);
}

TEST(ExpositionTest, EmptyRegistryRendersEmptyDocument) {
  MetricsRegistry registry;
  EXPECT_EQ(RenderExpositionText(registry), "");
}

}  // namespace
}  // namespace ems
