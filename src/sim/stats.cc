#include "src/sim/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace e2e {

void RunningStats::Add(double x) {
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void RunningStats::Merge(const RunningStats& other) {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

LogHistogram::LogHistogram(double min_value, double max_value, int buckets_per_decade)
    : min_value_(min_value), log_min_(std::log(min_value)) {
  assert(min_value > 0 && max_value > min_value && buckets_per_decade > 0);
  scale_ = static_cast<double>(buckets_per_decade) / std::log(10.0);
  num_buckets_ = static_cast<size_t>((std::log(max_value) - log_min_) * scale_) + 2;
}

size_t LogHistogram::BucketFor(double value) const {
  const double pos = (std::log(value) - log_min_) * scale_;
  return static_cast<size_t>(std::max(pos, 0.0));
}

double LogHistogram::BucketUpper(size_t idx) const {
  return std::exp(log_min_ + static_cast<double>(idx + 1) / scale_);
}

void LogHistogram::Cover(size_t lo, size_t hi) {
  if (counts_.empty()) {
    first_ = lo;
    counts_.assign(hi - lo + 1, 0);
    return;
  }
  if (lo < first_) {
    counts_.insert(counts_.begin(), first_ - lo, 0);
    first_ = lo;
  }
  if (hi - first_ >= counts_.size()) {
    counts_.resize(hi - first_ + 1, 0);
  }
}

void LogHistogram::Add(double value) {
  ++count_;
  sum_ += value;
  max_seen_ = std::max(max_seen_, value);
  if (value < min_value_) {
    ++underflow_;
    return;
  }
  const size_t idx = BucketFor(value);
  if (idx >= num_buckets_) {
    // Above the configured range: count explicitly instead of silently
    // clamping into the last bucket (which would cap high quantiles at the
    // last bucket's upper bound and misreport the overflow mass as lying
    // inside the range).
    ++overflow_;
    return;
  }
  Cover(idx, idx);
  ++counts_[idx - first_];
}

double LogHistogram::Quantile(double q) const {
  if (count_ == 0) {
    return 0.0;
  }
  q = std::clamp(q, 0.0, 1.0);
  // At least one sample must be at or below the answer: q = 0 means "the
  // smallest sample", not "a value no sample is below" (ceil(0) == 0 would
  // make `seen >= target` trivially true at the first bucket).
  const int64_t target =
      std::max<int64_t>(1, static_cast<int64_t>(std::ceil(q * static_cast<double>(count_))));
  int64_t seen = underflow_;
  if (seen >= target) {
    return min_value_;
  }
  for (size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen >= target) {
      return std::min(BucketUpper(first_ + i), max_seen_);
    }
  }
  // The target falls in the overflow tail (above the configured range).
  return max_seen_;
}

void LogHistogram::Merge(const LogHistogram& other) {
  assert(num_buckets_ == other.num_buckets_);
  assert(min_value_ == other.min_value_ && scale_ == other.scale_);
  if (!other.counts_.empty()) {
    Cover(other.first_, other.first_ + other.counts_.size() - 1);
    const size_t offset = other.first_ - first_;
    for (size_t i = 0; i < other.counts_.size(); ++i) {
      counts_[offset + i] += other.counts_[i];
    }
  }
  count_ += other.count_;
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
  sum_ += other.sum_;
  max_seen_ = std::max(max_seen_, other.max_seen_);
}

void LogHistogram::Clear() {
  counts_.clear();
  first_ = 0;
  count_ = 0;
  underflow_ = 0;
  overflow_ = 0;
  sum_ = 0;
  max_seen_ = 0;
}

void TimeWeighted::Set(TimePoint now, double value) {
  assert(now >= last_time_);
  integral_ += value_ * (now - last_time_).ToSeconds();
  last_time_ = now;
  value_ = value;
}

double TimeWeighted::AverageUntil(TimePoint now) const {
  const double elapsed = (now - window_start_).ToSeconds();
  if (elapsed <= 0) {
    return value_;
  }
  const double integral = integral_ + value_ * (now - last_time_).ToSeconds();
  return integral / elapsed;
}

void TimeWeighted::ResetWindow(TimePoint now) {
  assert(now >= last_time_);
  window_start_ = now;
  last_time_ = now;
  integral_ = 0;
}

}  // namespace e2e
