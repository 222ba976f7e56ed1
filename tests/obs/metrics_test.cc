#include "obs/metrics.h"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/json_writer.h"

namespace ems {
namespace {

TEST(CounterTest, IncrementAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(GaugeTest, LastWriteWins) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.Set(3.5);
  g.Set(-1.25);
  EXPECT_EQ(g.value(), -1.25);
}

TEST(MetricsRegistryTest, GetReturnsStablePointerPerName) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("ems.iterations");
  Counter* b = registry.GetCounter("ems.iterations");
  EXPECT_EQ(a, b);
  a->Increment(7);
  EXPECT_EQ(registry.CounterValue("ems.iterations"), 7u);
  EXPECT_EQ(registry.CounterValue("never.created"), 0u);
  registry.GetGauge("g");
  QuantileHistogram* h = registry.GetQuantileHistogram("h");
  EXPECT_EQ(registry.GetQuantileHistogram("h"), h);
  EXPECT_EQ(registry.NumInstruments(), 3u);
  h->Observe(4.0);
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"h\":{\"count\":1,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"min\":4,\"max\":4,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99\":4}"), std::string::npos) << json;
}

TEST(MetricsRegistryTest, ConcurrentIncrementsAreLossless) {
  MetricsRegistry registry;
  constexpr int kThreads = 4;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      Counter* c = registry.GetCounter("shared");
      for (int i = 0; i < kIncrements; ++i) c->Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(registry.CounterValue("shared"),
            static_cast<uint64_t>(kThreads) * kIncrements);
}

TEST(MetricsRegistryTest, JsonExportIsSortedAndComplete) {
  MetricsRegistry registry;
  registry.GetCounter("zeta")->Increment(2);
  registry.GetCounter("alpha")->Increment(1);
  registry.GetGauge("load")->Set(0.5);
  QuantileHistogram* h = registry.GetQuantileHistogram("lat");
  h->Observe(0.5);
  h->Observe(100.0);
  std::string json = registry.ToJson();
  // Sorted keys -> deterministic output.
  EXPECT_LT(json.find("\"alpha\""), json.find("\"zeta\""));
  EXPECT_NE(json.find("\"at_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"quantile_histograms\""), std::string::npos);
  EXPECT_EQ(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"alpha\":1"), std::string::npos);
  EXPECT_NE(json.find("\"zeta\":2"), std::string::npos);
  // The quantile digest: count, sum, min, max, p50, p90, p99.
  EXPECT_NE(json.find("\"lat\":{\"count\":2,\"sum\":100.5,\"min\":0.5,"
                      "\"max\":100,\"p50\":"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"p99\":100}"), std::string::npos) << json;
}

}  // namespace
}  // namespace ems
