// Online statistics used throughout the simulator and the benches.

#ifndef SRC_SIM_STATS_H_
#define SRC_SIM_STATS_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "src/sim/time.h"

namespace e2e {

// Welford's online mean/variance over double samples.
class RunningStats {
 public:
  void Add(double x);

  int64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  // Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double sum() const { return sum_; }

  // Merges another accumulator into this one (parallel-combinable).
  void Merge(const RunningStats& other);

 private:
  int64_t count_ = 0;
  double mean_ = 0;
  double m2_ = 0;
  double sum_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Log-bucketed histogram for nonnegative values (e.g. latencies in ns).
// Buckets grow geometrically from `min_value` to `max_value`; queries return
// an upper bound of the bucket containing the requested quantile. Only the
// buckets from the lowest to the highest one a sample has touched are
// stored (a dense window, as in DDSketch's dense store), so an empty
// histogram allocates nothing and samples spanning one decade hold about
// `buckets_per_decade` counts, however wide the configured range.
class LogHistogram {
 public:
  // `buckets_per_decade` controls resolution (higher = finer, more memory).
  LogHistogram(double min_value = 1.0, double max_value = 1e12,
               int buckets_per_decade = 100);

  void Add(double value);
  // Quantile in [0, 1]; returns 0 when empty. Quantile(0) is the upper
  // bound of the smallest sample's bucket (or `min_value` if any sample
  // underflowed), never a value with no sample at or below it.
  double Quantile(double q) const;
  double Percentile(double p) const { return Quantile(p / 100.0); }
  int64_t count() const { return count_; }
  // Samples below `min_value` / above the bucketed range. Both still count
  // toward count(), mean(), and quantiles (as the extreme buckets).
  int64_t underflow() const { return underflow_; }
  int64_t overflow() const { return overflow_; }
  double mean() const { return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0; }
  double max_seen() const { return count_ > 0 ? max_seen_ : 0.0; }
  void Clear();

  // Adds another histogram's counts. Both must share the same bucket
  // layout (min/max/resolution).
  void Merge(const LogHistogram& other);

 private:
  size_t BucketFor(double value) const;
  double BucketUpper(size_t idx) const;
  // Grows the window to include buckets [lo, hi].
  void Cover(size_t lo, size_t hi);

  double min_value_;
  double log_min_;
  double scale_;        // Buckets per natural-log unit.
  size_t num_buckets_;  // Buckets in [min_value, max_value]; above is overflow.
  size_t first_ = 0;    // counts_[i] is bucket first_ + i.
  std::vector<int64_t> counts_;
  int64_t count_ = 0;
  int64_t underflow_ = 0;
  int64_t overflow_ = 0;
  double sum_ = 0;
  double max_seen_ = 0;
};

// Time-weighted average of a piecewise-constant signal, e.g. queue depth or
// CPU busy state. Mirrors the "integral" bookkeeping of the paper's
// Algorithm 1 but for arbitrary doubles.
class TimeWeighted {
 public:
  explicit TimeWeighted(TimePoint start = TimePoint::Zero(), double initial = 0.0)
      : window_start_(start), last_time_(start), value_(initial) {}

  // Records that the signal changed to `value` at time `now` (>= last update).
  void Set(TimePoint now, double value);
  double value() const { return value_; }

  // Average over [start, now]. Returns `value()` if no time elapsed.
  double AverageUntil(TimePoint now) const;

  // Restarts the averaging window at `now`, keeping the current value.
  void ResetWindow(TimePoint now);

 private:
  TimePoint window_start_;
  TimePoint last_time_;
  double value_ = 0;
  double integral_ = 0;
};

}  // namespace e2e

#endif  // SRC_SIM_STATS_H_
