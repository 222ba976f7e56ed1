#include "obs/quantile_histogram.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/status.h"

namespace ems {

QuantileHistogram::QuantileHistogram(const QuantileHistogramOptions& options)
    : options_(options) {
  EMS_DCHECK(options_.min_value > 0.0);
  EMS_DCHECK(options_.max_value > options_.min_value);
  EMS_DCHECK(options_.buckets_per_doubling >= 1);
  log_min_ = std::log(options_.min_value);
  const double log_step =
      std::log(2.0) / static_cast<double>(options_.buckets_per_doubling);
  inv_log_step_ = 1.0 / log_step;
  const double span = std::log(options_.max_value) - log_min_;
  const size_t log_buckets =
      static_cast<size_t>(std::ceil(span * inv_log_step_ - 1e-9));
  // bounds_[0] == min_value closes the underflow bucket; the remaining
  // bounds climb geometrically until they cover max_value. exp2 keeps
  // whole-doubling bounds exact (min * 2^k has no rounding), so bucket
  // edges at powers of two behave as written.
  bounds_.reserve(log_buckets + 1);
  for (size_t i = 0; i <= log_buckets; ++i) {
    bounds_.push_back(
        options_.min_value *
        std::exp2(static_cast<double>(i) /
                  static_cast<double>(options_.buckets_per_doubling)));
  }
  bounds_.back() = std::max(bounds_.back(), options_.max_value);
  counts_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
}

size_t QuantileHistogram::BucketIndex(double v) const {
  if (!(v >= options_.min_value)) return 0;  // underflow; NaN lands here too
  if (v >= bounds_.back()) return bounds_.size();  // overflow
  // Bucket i (i >= 1) covers [bounds_[i-1], bounds_[i]).
  const double offset = (std::log(v) - log_min_) * inv_log_step_;
  size_t i = static_cast<size_t>(offset) + 1;
  i = std::min(i, bounds_.size() - 1);
  // std::log rounding can land one bucket off the closed-form index;
  // nudge against the actual bounds so the invariant holds exactly.
  while (i > 1 && v < bounds_[i - 1]) --i;
  while (i < bounds_.size() - 1 && v >= bounds_[i]) ++i;
  return i;
}

void QuantileHistogram::Observe(double v) {
  counts_[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  if (!any_.exchange(true, std::memory_order_relaxed)) {
    // First observer seeds both extrema; concurrent first observations
    // still converge through the CAS loops below.
    observed_min_.store(v, std::memory_order_relaxed);
    observed_max_.store(v, std::memory_order_relaxed);
    return;
  }
  double cur = observed_min_.load(std::memory_order_relaxed);
  while (v < cur && !observed_min_.compare_exchange_weak(
                        cur, v, std::memory_order_relaxed)) {
  }
  cur = observed_max_.load(std::memory_order_relaxed);
  while (v > cur && !observed_max_.compare_exchange_weak(
                        cur, v, std::memory_order_relaxed)) {
  }
}

double QuantileHistogram::min_value() const {
  return any_.load(std::memory_order_relaxed)
             ? observed_min_.load(std::memory_order_relaxed)
             : 0.0;
}

double QuantileHistogram::max_value() const {
  return any_.load(std::memory_order_relaxed)
             ? observed_max_.load(std::memory_order_relaxed)
             : 0.0;
}

double QuantileHistogram::bucket_upper_bound(size_t i) const {
  if (i >= bounds_.size()) return std::numeric_limits<double>::infinity();
  return bounds_[i];
}

double QuantileHistogram::Quantile(double q) const {
  std::vector<uint64_t> counts(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    counts[i] = counts_[i].load(std::memory_order_relaxed);
  }
  // max-then-min, not std::clamp: a scrape racing the first observation
  // may read min > max for an instant.
  return std::min(
      std::max(QuantileFromBucketCounts(bounds_, counts, q), min_value()),
      max_value());
}

double QuantileFromBucketCounts(const std::vector<double>& bounds,
                                const std::vector<uint64_t>& counts,
                                double q) {
  EMS_DCHECK(counts.size() == bounds.size() + 1);
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target observation, 1-based; ceil matches the "nearest
  // rank" quantile definition so p100 is the last observation.
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(total))));
  uint64_t cumulative = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const uint64_t before = cumulative;
    cumulative += counts[i];
    if (cumulative < rank) continue;
    const double lower = i == 0 ? 0.0 : bounds[i - 1];
    // Overflow bucket has no upper bound; report its lower edge.
    const double upper = i < bounds.size() ? bounds[i] : lower;
    const double fraction = static_cast<double>(rank - before) /
                            static_cast<double>(counts[i]);
    return lower + (upper - lower) * fraction;
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

}  // namespace ems
