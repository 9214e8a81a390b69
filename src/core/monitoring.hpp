// QoS monitoring service.
//
// The framework "provides infrastructure services such as for the
// negotiation of QoS agreements and for monitoring them" (§2.1). QoS
// mechanisms feed metric samples (latency, payload bytes, staleness, ...)
// into a Monitor; thresholds attached to a metric fire violation events,
// which the adaptation layer turns into renegotiations.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sim/clock.hpp"

namespace maqs::core {

/// Bounded series of timestamped samples with summary statistics.
class MetricSeries {
 public:
  explicit MetricSeries(std::size_t capacity = 1024) : capacity_(capacity) {}

  void record(sim::TimePoint at, double value);

  std::size_t count() const noexcept { return samples_.size(); }
  bool empty() const noexcept { return samples_.empty(); }
  double last() const;
  double min() const;
  double max() const;
  double mean() const;

 private:
  std::size_t capacity_;
  std::deque<std::pair<sim::TimePoint, double>> samples_;
};

/// Threshold bounds on a metric; either side optional.
struct Threshold {
  std::optional<double> min;
  std::optional<double> max;
};

struct Violation {
  std::string metric;
  double value = 0;
  Threshold threshold;
  sim::TimePoint at = 0;
  /// Consecutive out-of-bounds samples including this one.
  int consecutive = 0;
};

class Monitor {
 public:
  using ViolationHandler = std::function<void(const Violation&)>;

  /// Creates the series on first use.
  MetricSeries& series(const std::string& metric);
  const MetricSeries* find_series(const std::string& metric) const;

  void set_threshold(const std::string& metric, Threshold threshold);
  void clear_threshold(const std::string& metric);

  /// A violation fires only after `n` consecutive out-of-bounds samples
  /// (debounce; default 1 = immediate).
  void set_debounce(int n) { debounce_ = n < 1 ? 1 : n; }

  /// Handlers run synchronously from record().
  void subscribe(ViolationHandler handler);

  /// Records a sample and evaluates thresholds.
  void record(const std::string& metric, sim::TimePoint at, double value);

  std::uint64_t violations_fired() const noexcept { return violations_; }

 private:
  std::map<std::string, MetricSeries> series_;
  std::map<std::string, Threshold> thresholds_;
  std::map<std::string, int> consecutive_;
  std::vector<ViolationHandler> handlers_;
  int debounce_ = 1;
  std::uint64_t violations_ = 0;
};

}  // namespace maqs::core
