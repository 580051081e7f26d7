#include "src/sim/stats.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/sim/random.h"

namespace e2e {
namespace {

TEST(RunningStatsTest, MatchesClosedForm) {
  RunningStats stats;
  const std::vector<double> xs = {2, 4, 4, 4, 5, 5, 7, 9};
  for (double x : xs) {
    stats.Add(x);
  }
  EXPECT_EQ(stats.count(), 8);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 40.0);
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);  // Sample variance.
  EXPECT_EQ(stats.min(), 2);
  EXPECT_EQ(stats.max(), 9);
}

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0);
  EXPECT_EQ(stats.mean(), 0);
  EXPECT_EQ(stats.variance(), 0);
}

TEST(RunningStatsTest, MergeEqualsCombinedStream) {
  Rng rng(5);
  RunningStats all;
  RunningStats left;
  RunningStats right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Normal(3, 7);
    all.Add(x);
    (i % 2 == 0 ? left : right).Add(x);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-6);
  EXPECT_EQ(left.min(), all.min());
  EXPECT_EQ(left.max(), all.max());
}

TEST(RunningStatsTest, MergeWithEmptySides) {
  RunningStats a;
  RunningStats b;
  b.Add(5);
  a.Merge(b);  // Empty <- nonempty.
  EXPECT_EQ(a.count(), 1);
  EXPECT_EQ(a.mean(), 5);
  RunningStats c;
  a.Merge(c);  // Nonempty <- empty.
  EXPECT_EQ(a.count(), 1);
}

TEST(LogHistogramTest, QuantilesOnUniformData) {
  LogHistogram hist(1.0, 1e7, 200);
  for (int i = 1; i <= 10000; ++i) {
    hist.Add(i);
  }
  EXPECT_EQ(hist.count(), 10000);
  // Log-bucket upper bounds overshoot by at most one bucket width (~1.2%).
  EXPECT_NEAR(hist.Percentile(50), 5000, 5000 * 0.02);
  EXPECT_NEAR(hist.Percentile(99), 9900, 9900 * 0.02);
  EXPECT_NEAR(hist.Quantile(1.0), 10000, 1);
  EXPECT_DOUBLE_EQ(hist.mean(), 5000.5);
}

TEST(LogHistogramTest, UnderflowCountsTowardLowQuantiles) {
  LogHistogram hist(100.0, 1e6, 100);
  for (int i = 0; i < 90; ++i) {
    hist.Add(1.0);  // Below min_value.
  }
  for (int i = 0; i < 10; ++i) {
    hist.Add(1000.0);
  }
  EXPECT_EQ(hist.Quantile(0.5), 100.0);  // Clamped to min_value.
  EXPECT_NEAR(hist.Quantile(0.95), 1000.0, 15.0);
}

TEST(LogHistogramTest, QuantileNeverExceedsMaxSeen) {
  LogHistogram hist;
  hist.Add(123.0);
  EXPECT_EQ(hist.Quantile(1.0), 123.0);
  EXPECT_EQ(hist.max_seen(), 123.0);
}

TEST(LogHistogramTest, EmptyAndClear) {
  LogHistogram hist;
  EXPECT_EQ(hist.Quantile(0.5), 0.0);
  hist.Add(5);
  hist.Clear();
  EXPECT_EQ(hist.count(), 0);
  EXPECT_EQ(hist.Quantile(0.5), 0.0);
  EXPECT_EQ(hist.underflow(), 0);
  EXPECT_EQ(hist.overflow(), 0);
}

TEST(LogHistogramTest, QuantileZeroTracksSmallestSample) {
  // p0 must be the smallest sample's bucket bound, not min_value_: with no
  // sample anywhere near min_value, returning it would invent a value no
  // sample is at or below (the old ceil(0)==0 target bug).
  LogHistogram hist(1.0, 1e7, 100);
  hist.Add(5000.0);
  hist.Add(9000.0);
  EXPECT_NEAR(hist.Quantile(0.0), 5000.0, 5000.0 * 0.03);
  EXPECT_GE(hist.Quantile(0.0), 5000.0);  // Bucket upper bound.
}

TEST(LogHistogramTest, QuantileZeroWithUnderflowIsMinValue) {
  LogHistogram hist(100.0, 1e6, 100);
  hist.Add(1.0);  // Underflows: clamped to the min_value bucket.
  hist.Add(5000.0);
  EXPECT_EQ(hist.underflow(), 1);
  EXPECT_EQ(hist.Quantile(0.0), 100.0);
}

TEST(LogHistogramTest, QuantileOneIsMaxSeenWithOverflow) {
  LogHistogram hist(1.0, 1e3, 10);
  hist.Add(10.0);
  hist.Add(5e6);  // Far above max_value: lands in the overflow tail.
  EXPECT_EQ(hist.overflow(), 1);
  EXPECT_EQ(hist.count(), 2);
  // The overflow tail reports the exact max rather than a stale bucket
  // bound ~1e3 that would underreport the tail by orders of magnitude.
  EXPECT_EQ(hist.Quantile(1.0), 5e6);
  EXPECT_DOUBLE_EQ(hist.mean(), (10.0 + 5e6) / 2);
  // Low quantiles are unaffected by the overflow sample.
  EXPECT_NEAR(hist.Quantile(0.0), 10.0, 10.0 * 0.3);
}

TEST(LogHistogramTest, MergeCombinesOverflowAndUnderflow) {
  LogHistogram a(10.0, 1e3, 10);
  LogHistogram b(10.0, 1e3, 10);
  a.Add(1.0);   // Underflow in a.
  b.Add(1e6);   // Overflow in b.
  b.Add(50.0);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3);
  EXPECT_EQ(a.underflow(), 1);
  EXPECT_EQ(a.overflow(), 1);
  EXPECT_EQ(a.Quantile(0.0), 10.0);  // Underflow clamps to min_value.
  EXPECT_EQ(a.Quantile(1.0), 1e6);
}

// The bucket window grows on demand, but every way of feeding a histogram
// the same samples must answer like one histogram fed them in one stream.
void ExpectSameAsCombined(const LogHistogram& got, const LogHistogram& combined) {
  EXPECT_EQ(got.count(), combined.count());
  EXPECT_EQ(got.underflow(), combined.underflow());
  EXPECT_EQ(got.overflow(), combined.overflow());
  EXPECT_EQ(got.max_seen(), combined.max_seen());
  for (double q : {0.0, 0.01, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(got.Quantile(q), combined.Quantile(q)) << "q=" << q;
  }
}

TEST(LogHistogramWindowTest, DescendingStreamGrowsTheWindowLeft) {
  LogHistogram descending(0.1, 1e9, 100);
  LogHistogram ascending(0.1, 1e9, 100);
  std::vector<double> xs;
  for (double x = 3e6; x > 0.5; x *= 0.93) {
    xs.push_back(x);
  }
  for (double x : xs) {
    descending.Add(x);
  }
  for (auto it = xs.rbegin(); it != xs.rend(); ++it) {
    ascending.Add(*it);
  }
  ExpectSameAsCombined(descending, ascending);
  EXPECT_NEAR(descending.Quantile(0.0), xs.back(), xs.back() * 0.03);
  EXPECT_EQ(descending.Quantile(1.0), xs.front());
}

TEST(LogHistogramWindowTest, SamplesAtBothEndsOfTheRange) {
  // On 0.1..1e9, 0.1 lands in bucket 0 and 1e9 in the top in-range one.
  LogHistogram low(0.1, 1e9, 100);
  LogHistogram high(0.1, 1e9, 100);
  LogHistogram combined(0.1, 1e9, 100);
  for (int i = 0; i < 50; ++i) {
    const double small = 0.1 + 0.001 * i;
    const double large = 1e9 - 1e5 * i;
    low.Add(small);
    high.Add(large);
    combined.Add(large);
    combined.Add(small);
  }
  EXPECT_EQ(combined.underflow(), 0);
  EXPECT_EQ(combined.overflow(), 0);
  low.Merge(high);
  ExpectSameAsCombined(low, combined);
  EXPECT_NEAR(combined.Quantile(0.0), 0.1, 0.1 * 0.03);
  EXPECT_EQ(combined.Quantile(1.0), 1e9);
}

TEST(LogHistogramWindowTest, MergeOfDisjointWindows) {
  Rng rng(7);
  LogHistogram fast(0.1, 1e9, 100);
  LogHistogram slow(0.1, 1e9, 100);
  LogHistogram combined(0.1, 1e9, 100);
  for (int i = 0; i < 2000; ++i) {
    const double x = 10 + 90 * rng.Uniform01();
    const double y = 1e5 + 9e5 * rng.Uniform01();
    fast.Add(x);
    slow.Add(y);
    combined.Add(x);
    combined.Add(y);
  }
  LogHistogram slow_first = slow;
  slow_first.Merge(fast);  // Grows the window left.
  fast.Merge(slow);        // Grows the window right.
  ExpectSameAsCombined(fast, combined);
  ExpectSameAsCombined(slow_first, combined);
}

TEST(LogHistogramWindowTest, MergeIntoEmptyHistogram) {
  LogHistogram source(0.1, 1e9, 100);
  for (double x : {3.0, 40.0, 41.0, 7e4}) {
    source.Add(x);
  }
  source.Add(0.01);  // Underflow.
  source.Add(2e9);   // Overflow.
  LogHistogram empty(0.1, 1e9, 100);
  empty.Merge(source);
  ExpectSameAsCombined(empty, source);
}

TEST(LogHistogramWindowTest, ClearThenReuse) {
  LogHistogram reused(0.1, 1e9, 100);
  for (double x : {5e5, 6e5, 7e5, 0.01, 5e9}) {
    reused.Add(x);
  }
  reused.Clear();
  LogHistogram fresh(0.1, 1e9, 100);
  for (double x : {2.0, 30.0, 31.0, 400.0}) {
    reused.Add(x);
    fresh.Add(x);
  }
  ExpectSameAsCombined(reused, fresh);
  EXPECT_DOUBLE_EQ(reused.mean(), fresh.mean());
}

TEST(LogHistogramWindowTest, UnderflowOnlyAndOverflowOnly) {
  LogHistogram under_a(10.0, 1e3, 10);
  LogHistogram under_b(10.0, 1e3, 10);
  LogHistogram under(10.0, 1e3, 10);
  LogHistogram over_a(10.0, 1e3, 10);
  LogHistogram over_b(10.0, 1e3, 10);
  LogHistogram over(10.0, 1e3, 10);
  for (int i = 1; i <= 6; ++i) {
    (i % 2 == 0 ? under_a : under_b).Add(i);
    under.Add(i);
    (i % 2 == 0 ? over_a : over_b).Add(1e4 * i);
    over.Add(1e4 * i);
  }
  under_a.Merge(under_b);
  over_a.Merge(over_b);
  ExpectSameAsCombined(under_a, under);
  ExpectSameAsCombined(over_a, over);
  EXPECT_EQ(under.underflow(), 6);
  EXPECT_EQ(over.overflow(), 6);
  for (double q : {0.0, 0.01, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(under.Quantile(q), 10.0) << "q=" << q;  // min_value.
    EXPECT_EQ(over.Quantile(q), 6e4) << "q=" << q;    // max_seen.
  }
}

TEST(TimeWeightedTest, PaperWorkedExample) {
  // 1 item for 10 us then 4 items for 20 us -> average 3.
  TimeWeighted tw(TimePoint::Zero(), 1.0);
  tw.Set(TimePoint::FromNanos(10000), 4.0);
  EXPECT_DOUBLE_EQ(tw.AverageUntil(TimePoint::FromNanos(30000)), 3.0);
}

TEST(TimeWeightedTest, NoElapsedTimeReturnsCurrent) {
  TimeWeighted tw(TimePoint::Zero(), 7.0);
  EXPECT_DOUBLE_EQ(tw.AverageUntil(TimePoint::Zero()), 7.0);
}

TEST(TimeWeightedTest, ResetWindowDropsHistory) {
  TimeWeighted tw(TimePoint::Zero(), 100.0);
  tw.Set(TimePoint::FromNanos(1000000), 0.0);
  tw.ResetWindow(TimePoint::FromNanos(1000000));
  EXPECT_DOUBLE_EQ(tw.AverageUntil(TimePoint::FromNanos(2000000)), 0.0);
}

}  // namespace
}  // namespace e2e
