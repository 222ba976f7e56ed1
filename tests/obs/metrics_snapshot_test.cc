#include "obs/metrics_snapshot.h"

#include <gtest/gtest.h>

#include "util/json_writer.h"

namespace ems {
namespace {

TEST(MetricsSnapshotTest, CapturesEveryInstrumentKind) {
  MetricsRegistry registry;
  registry.GetCounter("jobs")->Increment(3);
  registry.GetGauge("depth")->Set(7.0);
  QuantileHistogram* q = registry.GetQuantileHistogram("latency");
  q->Observe(5.0);
  q->Observe(50.0);

  MetricsSnapshot snapshot = CaptureMetricsSnapshot(registry);
  EXPECT_GT(snapshot.at_seconds, 0.0);
  EXPECT_EQ(snapshot.counters.at("jobs"), 3u);
  EXPECT_EQ(snapshot.gauges.at("depth"), 7.0);
  EXPECT_EQ(snapshot.quantile_histograms.at("latency").count, 2u);
  EXPECT_EQ(snapshot.quantile_histograms.at("latency").min, 5.0);
  EXPECT_EQ(snapshot.quantile_histograms.at("latency").max, 50.0);
  EXPECT_GT(snapshot.quantile_histograms.at("latency").p50, 0.0);
  EXPECT_LE(snapshot.quantile_histograms.at("latency").p50,
            snapshot.quantile_histograms.at("latency").p99);
}

TEST(MetricsSnapshotTest, DiffRatesDividesByInterval) {
  MetricsSnapshot prev, cur;
  prev.at_seconds = 100.0;
  cur.at_seconds = 102.0;
  prev.counters["jobs"] = 10;
  cur.counters["jobs"] = 30;
  cur.counters["fresh"] = 4;  // absent in prev: counts from zero
  auto rates = DiffRates(prev, cur);
  EXPECT_DOUBLE_EQ(rates.at("jobs"), 10.0);   // 20 / 2s
  EXPECT_DOUBLE_EQ(rates.at("fresh"), 2.0);   // 4 / 2s
}

TEST(MetricsSnapshotTest, DiffRatesSurvivesCounterReset) {
  MetricsSnapshot prev, cur;
  prev.at_seconds = 10.0;
  cur.at_seconds = 14.0;
  prev.counters["jobs"] = 1000;
  cur.counters["jobs"] = 8;  // went backwards: registry reset / restart
  auto rates = DiffRates(prev, cur);
  // Rated as cur/interval — a restart, never a negative rate.
  EXPECT_DOUBLE_EQ(rates.at("jobs"), 2.0);
  EXPECT_GE(rates.at("jobs"), 0.0);
}

TEST(MetricsSnapshotTest, DiffRatesEmptyOnNonPositiveInterval) {
  MetricsSnapshot prev, cur;
  prev.at_seconds = 10.0;
  cur.at_seconds = 10.0;
  prev.counters["jobs"] = 1;
  cur.counters["jobs"] = 5;
  EXPECT_TRUE(DiffRates(prev, cur).empty());
  cur.at_seconds = 9.0;
  EXPECT_TRUE(DiffRates(prev, cur).empty());
}

TEST(MetricsSnapshotTest, WriteJsonEmitsIntegerGauges) {
  MetricsSnapshot snapshot;
  snapshot.at_seconds = 1.5;
  snapshot.gauges["threads"] = 8.0;       // integral -> no decimal point
  snapshot.gauges["load"] = 0.75;         // fractional -> stays a double
  snapshot.counters["jobs"] = 12;
  JsonWriter w;
  snapshot.WriteJson(&w);
  const std::string json = w.str();
  EXPECT_NE(json.find("\"threads\":8"), std::string::npos);
  EXPECT_EQ(json.find("\"threads\":8."), std::string::npos);
  EXPECT_EQ(json.find("8e"), std::string::npos);  // never scientific
  EXPECT_NE(json.find("\"load\":0.75"), std::string::npos);
  EXPECT_NE(json.find("\"jobs\":12"), std::string::npos);
}

TEST(MetricsSnapshotTest, LiveRegistryDiffReportsProgress) {
  MetricsRegistry registry;
  registry.GetCounter("jobs")->Increment(5);
  MetricsSnapshot first = CaptureMetricsSnapshot(registry);
  registry.GetCounter("jobs")->Increment(10);
  MetricsSnapshot second = CaptureMetricsSnapshot(registry);
  // Fake a known interval: snapshots are plain data.
  second.at_seconds = first.at_seconds + 5.0;
  auto rates = DiffRates(first, second);
  EXPECT_DOUBLE_EQ(rates.at("jobs"), 2.0);  // 10 new / 5s
}

}  // namespace
}  // namespace ems
