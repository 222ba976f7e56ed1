#include "obs/quantile_histogram.h"

#include <cmath>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace ems {
namespace {

TEST(QuantileHistogramTest, EmptyReportsZeros) {
  QuantileHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.min_value(), 0.0);
  EXPECT_EQ(h.max_value(), 0.0);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
}

TEST(QuantileHistogramTest, BucketZeroIsUnderflow) {
  QuantileHistogramOptions options;
  options.min_value = 1.0;
  options.max_value = 1024.0;
  QuantileHistogram h(options);
  EXPECT_EQ(h.BucketIndex(0.0), 0u);
  EXPECT_EQ(h.BucketIndex(0.999), 0u);
  EXPECT_EQ(h.BucketIndex(-5.0), 0u);
  EXPECT_EQ(h.BucketIndex(std::nan("")), 0u);
  // min_value itself is in range, not underflow.
  EXPECT_GE(h.BucketIndex(1.0), 1u);
}

TEST(QuantileHistogramTest, BucketBoundariesAreHalfOpen) {
  QuantileHistogramOptions options;
  options.min_value = 1.0;
  options.max_value = 1024.0;
  options.buckets_per_doubling = 1;  // bounds 1, 2, 4, ..., 1024
  QuantileHistogram h(options);
  // Bucket i >= 1 covers [bound[i-1], bound[i]): a value equal to a
  // bound starts the next bucket.
  for (double v : {1.0, 2.0, 4.0, 8.0, 512.0}) {
    const size_t at = h.BucketIndex(v);
    const size_t below = h.BucketIndex(std::nextafter(v, 0.0));
    EXPECT_EQ(at, below + 1) << "bound " << v;
    EXPECT_GE(v, h.bucket_upper_bound(at - 1)) << "bound " << v;
    EXPECT_LT(v, h.bucket_upper_bound(at)) << "bound " << v;
  }
}

TEST(QuantileHistogramTest, EveryBucketHonorsItsBounds) {
  QuantileHistogram h;  // default 1e-3 .. 1e7, 8 per doubling
  // Sweep a dense range of magnitudes; the invariant
  // bound[i-1] <= v < bound[i] must hold for every in-range value.
  for (double exp = -3.0; exp < 7.0; exp += 0.0173) {
    const double v = std::pow(10.0, exp);
    const size_t i = h.BucketIndex(v);
    ASSERT_GE(i, 1u) << v;
    ASSERT_LT(i, h.num_buckets() - 1) << v;
    EXPECT_GE(v, h.bucket_upper_bound(i - 1)) << v;
    EXPECT_LT(v, h.bucket_upper_bound(i)) << v;
  }
}

TEST(QuantileHistogramTest, OverflowBucketCatchesLargeValues) {
  QuantileHistogramOptions options;
  options.min_value = 1.0;
  options.max_value = 100.0;
  QuantileHistogram h(options);
  const size_t overflow = h.num_buckets() - 1;
  EXPECT_EQ(h.BucketIndex(1e9), overflow);
  EXPECT_EQ(h.BucketIndex(h.bucket_upper_bound(overflow - 1)), overflow);
  h.Observe(1e9);
  h.Observe(2e9);
  EXPECT_EQ(h.bucket_count(overflow), 2u);
  EXPECT_EQ(std::isinf(h.bucket_upper_bound(overflow)), true);
  // Overflow quantiles never report infinity: the bucket's lower edge
  // (QuantileFromBucketCountsNearestRank pins that rule) is raised to the
  // observed minimum by the clamp.
  EXPECT_TRUE(std::isfinite(h.Quantile(1.0)));
  EXPECT_EQ(h.Quantile(1.0), 1e9);
}

TEST(QuantileHistogramTest, SingleObservationReadsBackAsItself) {
  QuantileHistogram h;
  h.Observe(0.494);  // a bucket's interpolated estimate would read 0.512
  EXPECT_EQ(h.Quantile(0.5), 0.494);
  EXPECT_EQ(h.Quantile(0.99), 0.494);
}

TEST(QuantileHistogramTest, TracksSumCountMinMax) {
  QuantileHistogram h;
  h.Observe(2.0);
  h.Observe(8.0);
  h.Observe(0.5);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 10.5);
  EXPECT_DOUBLE_EQ(h.min_value(), 0.5);
  EXPECT_DOUBLE_EQ(h.max_value(), 8.0);
}

TEST(QuantileHistogramTest, QuantilesWithinBucketResolution) {
  QuantileHistogram h;
  // 1000 observations spread uniformly over [1, 101).
  for (int i = 0; i < 1000; ++i) h.Observe(1.0 + 0.1 * i);
  // The log-bucketed estimate is within one bucket (~9% relative).
  EXPECT_NEAR(h.Quantile(0.50), 51.0, 51.0 * 0.10);
  EXPECT_NEAR(h.Quantile(0.90), 91.0, 91.0 * 0.10);
  EXPECT_NEAR(h.Quantile(0.99), 100.0, 100.0 * 0.10);
  // Quantiles are monotone in q.
  EXPECT_LE(h.Quantile(0.50), h.Quantile(0.90));
  EXPECT_LE(h.Quantile(0.90), h.Quantile(0.99));
}

TEST(QuantileHistogramTest, QuantileFromBucketCountsNearestRank) {
  const std::vector<double> bounds = {1.0, 2.0, 4.0};
  // underflow=0, [1,2)=2, [2,4)=1, overflow=1.
  const std::vector<uint64_t> counts = {0, 2, 1, 1};
  // rank(0.25 * 4) = 1 -> first observation, inside [1, 2).
  EXPECT_GT(QuantileFromBucketCounts(bounds, counts, 0.25), 1.0);
  EXPECT_LE(QuantileFromBucketCounts(bounds, counts, 0.25), 2.0);
  // rank 3 -> the [2, 4) bucket's upper bound (fraction 1 of 1).
  EXPECT_DOUBLE_EQ(QuantileFromBucketCounts(bounds, counts, 0.75), 4.0);
  // rank 4 -> overflow, reported at its lower edge.
  EXPECT_DOUBLE_EQ(QuantileFromBucketCounts(bounds, counts, 1.0), 4.0);
  // q = 0 clamps to rank 1.
  EXPECT_GT(QuantileFromBucketCounts(bounds, counts, 0.0), 1.0);
}

TEST(QuantileHistogramTest, ConcurrentObserveIsLossless) {
  QuantileHistogram h;
  constexpr int kThreads = 4;
  constexpr int kObservations = 25000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kObservations; ++i) {
        h.Observe(0.5 + t + 1e-4 * i);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h.count(), static_cast<uint64_t>(kThreads) * kObservations);
  uint64_t bucket_total = 0;
  for (size_t i = 0; i < h.num_buckets(); ++i) bucket_total += h.bucket_count(i);
  EXPECT_EQ(bucket_total, h.count());
  EXPECT_DOUBLE_EQ(h.min_value(), 0.5);
  EXPECT_DOUBLE_EQ(h.max_value(), 0.5 + (kThreads - 1) + 1e-4 * (kObservations - 1));
}

}  // namespace
}  // namespace ems
