#include "metrics/latency_recorder.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace hotc::metrics {
namespace {

LatencyPoint point(std::uint64_t id, TimePoint arrival, Duration latency,
                   bool cold) {
  LatencyPoint p;
  p.request_id = id;
  p.arrival = arrival;
  p.latency = latency;
  p.cold = cold;
  return p;
}

TEST(LatencyRecorder, EmptySummary) {
  LatencyRecorder r;
  const auto s = r.summary();
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean_ms, 0.0);
  EXPECT_DOUBLE_EQ(s.cold_fraction(), 0.0);
}

TEST(LatencyRecorder, SummaryStatistics) {
  LatencyRecorder r;
  r.add(point(1, seconds(0), milliseconds(100), true));
  r.add(point(2, seconds(1), milliseconds(10), false));
  r.add(point(3, seconds(2), milliseconds(20), false));
  r.add(point(4, seconds(3), milliseconds(30), false));
  const auto s = r.summary();
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.cold_count, 1u);
  EXPECT_DOUBLE_EQ(s.mean_ms, 40.0);
  EXPECT_DOUBLE_EQ(s.min_ms, 10.0);
  EXPECT_DOUBLE_EQ(s.max_ms, 100.0);
  EXPECT_DOUBLE_EQ(s.cold_mean_ms, 100.0);
  EXPECT_DOUBLE_EQ(s.warm_mean_ms, 20.0);
  EXPECT_DOUBLE_EQ(s.cold_fraction(), 0.25);
}

TEST(LatencyRecorder, LatenciesInOrder) {
  LatencyRecorder r;
  r.add(point(1, seconds(0), milliseconds(5), false));
  r.add(point(2, seconds(1), milliseconds(7), false));
  EXPECT_EQ(r.latencies_ms(), (std::vector<double>{5.0, 7.0}));
}

TEST(LatencyRecorder, SummaryBetweenFiltersArrivals) {
  LatencyRecorder r;
  r.add(point(1, seconds(0), milliseconds(10), true));
  r.add(point(2, seconds(10), milliseconds(20), false));
  r.add(point(3, seconds(20), milliseconds(30), false));
  const auto s = r.summary_between(seconds(5), seconds(20));
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.mean_ms, 20.0);
}

TEST(LatencyRecorder, PercentilesInSummary) {
  LatencyRecorder r;
  for (int i = 1; i <= 100; ++i) {
    r.add(point(i, seconds(i), milliseconds(i), false));
  }
  const auto s = r.summary();
  EXPECT_NEAR(s.p50_ms, 50.5, 1.0);
  EXPECT_NEAR(s.p99_ms, 99.0, 1.1);
  EXPECT_NEAR(s.p90_ms, 90.0, 1.1);
}

TEST(LatencyRecorder, Clear) {
  LatencyRecorder r;
  r.add(point(1, seconds(0), milliseconds(10), false));
  r.clear();
  EXPECT_EQ(r.size(), 0u);
}

TEST(LatencyRecorder, TailQuantileP999) {
  LatencyRecorder r;
  // 998 fast requests and two 10x outliers: p99.9 (interpolated at rank
  // 998.001) must land in the outlier region while p99 stays at the bulk.
  for (int i = 1; i <= 998; ++i) {
    r.add(point(i, seconds(i), milliseconds(10), false));
  }
  r.add(point(999, seconds(999), milliseconds(100), true));
  r.add(point(1000, seconds(1000), milliseconds(100), true));
  const auto s = r.summary();
  EXPECT_NEAR(s.p99_ms, 10.0, 0.5);
  EXPECT_NEAR(s.p999_ms, 100.0, 1.0);
  EXPECT_GE(s.p999_ms, s.p99_ms);
}

TEST(LatencyRecorder, StreamingQuantilesAgreeWithExactWithinBucketWidth) {
  // The recorder's exact quantiles against the streaming log-histogram
  // fed the same latencies: they agree within one bucket's width.
  LatencyRecorder exact;
  obs::LogHistogram streaming;
  for (int i = 1; i <= 5000; ++i) {
    // Spread over three decades so the log-scale buckets are exercised.
    const auto lat = microseconds(100 + (i * i) % 900000);
    exact.add(point(i, seconds(i), lat, i % 17 == 0));
    streaming.observe(to_milliseconds(lat));
  }
  const auto se = exact.summary();
  const obs::HistogramSnapshot ss = streaming.snapshot();
  EXPECT_EQ(ss.total, static_cast<std::uint64_t>(se.count));
  const double w = obs::LogHistogram::kWidth;
  for (auto [approx, ref] : {std::pair{ss.quantile(0.50), se.p50_ms},
                             std::pair{ss.quantile(0.90), se.p90_ms},
                             std::pair{ss.quantile(0.99), se.p99_ms},
                             std::pair{ss.quantile(0.999), se.p999_ms}}) {
    EXPECT_LE(approx, ref * w);
    EXPECT_GE(approx, ref / w);
  }
}

}  // namespace
}  // namespace hotc::metrics
