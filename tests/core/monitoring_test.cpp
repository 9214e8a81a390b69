#include "core/monitoring.hpp"

#include <gtest/gtest.h>

#include "core/characteristic.hpp"

namespace maqs::core {
namespace {

TEST(MetricSeries, Statistics) {
  MetricSeries series;
  for (double v : {4.0, 1.0, 3.0, 2.0}) series.record(0, v);
  EXPECT_EQ(series.count(), 4u);
  EXPECT_EQ(series.last(), 2.0);
  EXPECT_EQ(series.min(), 1.0);
  EXPECT_EQ(series.max(), 4.0);
  EXPECT_EQ(series.mean(), 2.5);
}

TEST(MetricSeries, EmptyThrows) {
  MetricSeries series;
  EXPECT_TRUE(series.empty());
  EXPECT_THROW(series.last(), QosError);
  EXPECT_THROW(series.mean(), QosError);
}

TEST(MetricSeries, BoundedWindow) {
  MetricSeries series(10);
  for (int i = 0; i < 100; ++i) series.record(i, i);
  EXPECT_EQ(series.count(), 10u);
  EXPECT_EQ(series.min(), 90.0);  // only the newest 10 retained
}

TEST(Monitor, ThresholdMaxViolation) {
  Monitor monitor;
  monitor.set_threshold("lat", {.min = {}, .max = 100.0});
  std::vector<Violation> seen;
  monitor.subscribe([&](const Violation& v) { seen.push_back(v); });
  monitor.record("lat", 1, 50.0);
  monitor.record("lat", 2, 150.0);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].metric, "lat");
  EXPECT_EQ(seen[0].value, 150.0);
  EXPECT_EQ(seen[0].at, 2);
  EXPECT_EQ(monitor.violations_fired(), 1u);
}

TEST(Monitor, ThresholdMinViolation) {
  Monitor monitor;
  monitor.set_threshold("throughput", {.min = 10.0, .max = {}});
  int fired = 0;
  monitor.subscribe([&](const Violation&) { ++fired; });
  monitor.record("throughput", 1, 20.0);
  monitor.record("throughput", 2, 5.0);
  EXPECT_EQ(fired, 1);
}

TEST(Monitor, DebounceRequiresConsecutiveViolations) {
  Monitor monitor;
  monitor.set_debounce(3);
  monitor.set_threshold("lat", {.min = {}, .max = 10.0});
  int fired = 0;
  monitor.subscribe([&](const Violation& v) {
    ++fired;
    EXPECT_GE(v.consecutive, 3);
  });
  monitor.record("lat", 1, 20.0);
  monitor.record("lat", 2, 20.0);
  EXPECT_EQ(fired, 0);
  monitor.record("lat", 3, 5.0);  // streak broken
  monitor.record("lat", 4, 20.0);
  monitor.record("lat", 5, 20.0);
  monitor.record("lat", 6, 20.0);
  EXPECT_EQ(fired, 1);
}

TEST(Monitor, MetricsWithoutThresholdNeverFire) {
  Monitor monitor;
  int fired = 0;
  monitor.subscribe([&](const Violation&) { ++fired; });
  monitor.record("anything", 1, 1e9);
  EXPECT_EQ(fired, 0);
  EXPECT_NE(monitor.find_series("anything"), nullptr);
  EXPECT_EQ(monitor.find_series("other"), nullptr);
}

TEST(Monitor, ClearThresholdStopsFiring) {
  Monitor monitor;
  monitor.set_threshold("x", {.min = {}, .max = 1.0});
  int fired = 0;
  monitor.subscribe([&](const Violation&) { ++fired; });
  monitor.record("x", 1, 5.0);
  monitor.clear_threshold("x");
  monitor.record("x", 2, 5.0);
  EXPECT_EQ(fired, 1);
}

}  // namespace
}  // namespace maqs::core
