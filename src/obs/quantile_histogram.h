// Log-scale quantile histogram: the registry's one distribution
// instrument (metrics.h), for latencies and counts alike. Fixed
// log-spaced buckets cover [min_value, max_value) with a configurable
// resolution per doubling, plus an underflow and an overflow bucket;
// Observe is lock-free (one relaxed fetch_add per observation), and
// p50/p90/p99 are extracted exactly from the bucket counts — "exact"
// meaning deterministic given the counts, with relative value error
// bounded by the bucket width (~9% at the default 8 buckets per
// doubling), and never outside the observed [min, max]. The default
// range spans microseconds to hours of wall time, and iteration counts
// or queue depths, without choosing bounds per instrument.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace ems {

/// Bucket layout of a QuantileHistogram, fixed at construction.
struct QuantileHistogramOptions {
  /// Lower bound of the log-spaced range; observations below land in the
  /// underflow bucket. Must be > 0.
  double min_value = 1e-3;

  /// Upper bound of the log-spaced range; observations at or above land
  /// in the overflow bucket. Must be > min_value.
  double max_value = 1e7;

  /// Buckets per power of two; 8 bounds the relative quantile error at
  /// 2^(1/8)-1 ~ 9%. Must be >= 1.
  int buckets_per_doubling = 8;
};

/// \brief Lock-free log-bucketed histogram with quantile extraction.
///
/// All mutators and accessors are safe to call concurrently; quantile
/// extraction reads a racy snapshot of the bucket counts, which is the
/// standard monitoring trade (a scrape concurrent with traffic may be
/// off by the in-flight observations, never torn).
class QuantileHistogram {
 public:
  explicit QuantileHistogram(
      const QuantileHistogramOptions& options = QuantileHistogramOptions());

  /// Records one observation. Lock-free: two relaxed fetch_adds plus one
  /// CAS-free index computation (and two bounded CAS loops for min/max).
  void Observe(double v);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }

  /// Smallest / largest value observed so far; 0 when empty.
  double min_value() const;
  double max_value() const;

  /// The value at quantile `q` in [0, 1]: QuantileFromBucketCounts over
  /// the bucket counts, clamped to [min_value(), max_value()] so the
  /// bucket estimate never leaves the observed range (one observation
  /// reads back as itself). Returns 0 when the histogram is empty.
  double Quantile(double q) const;

  /// Total bucket count: log-spaced buckets + underflow + overflow.
  size_t num_buckets() const { return bounds_.size() + 1; }

  /// Count in bucket `i` (0 = underflow, num_buckets()-1 = overflow).
  uint64_t bucket_count(size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }

  /// Upper bound of bucket `i` (exclusive); +inf for the overflow bucket.
  double bucket_upper_bound(size_t i) const;

  /// The bucket index `v` lands in — exposed for boundary tests.
  size_t BucketIndex(double v) const;

  const QuantileHistogramOptions& options() const { return options_; }

 private:
  QuantileHistogramOptions options_;
  double log_min_ = 0.0;        // std::log(options_.min_value)
  double inv_log_step_ = 0.0;   // buckets per natural-log unit
  std::vector<double> bounds_;  // upper bound of bucket i, i < bounds_.size()
  std::unique_ptr<std::atomic<uint64_t>[]> counts_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> observed_min_{0.0};
  std::atomic<double> observed_max_{0.0};
  std::atomic<bool> any_{false};
};

/// The bucket math behind QuantileHistogram::Quantile, before its clamp:
/// given bucket upper bounds (the last, overflow bucket has no bound)
/// and counts (bounds.size() + 1 entries), returns the value at quantile
/// `q` with linear interpolation inside the containing bucket; the
/// overflow bucket reports its lower edge. 0 when empty.
double QuantileFromBucketCounts(const std::vector<double>& bounds,
                                const std::vector<uint64_t>& counts, double q);

}  // namespace ems
