#include "core/monitoring.hpp"

#include <algorithm>

#include "core/characteristic.hpp"

namespace maqs::core {

void MetricSeries::record(sim::TimePoint at, double value) {
  samples_.emplace_back(at, value);
  if (samples_.size() > capacity_) samples_.pop_front();
}

double MetricSeries::last() const {
  if (samples_.empty()) throw QosError("metric series: empty");
  return samples_.back().second;
}

double MetricSeries::min() const {
  if (samples_.empty()) throw QosError("metric series: empty");
  double out = samples_.front().second;
  for (const auto& [_, v] : samples_) out = std::min(out, v);
  return out;
}

double MetricSeries::max() const {
  if (samples_.empty()) throw QosError("metric series: empty");
  double out = samples_.front().second;
  for (const auto& [_, v] : samples_) out = std::max(out, v);
  return out;
}

double MetricSeries::mean() const {
  if (samples_.empty()) throw QosError("metric series: empty");
  double sum = 0;
  for (const auto& [_, v] : samples_) sum += v;
  return sum / static_cast<double>(samples_.size());
}

MetricSeries& Monitor::series(const std::string& metric) {
  return series_.try_emplace(metric).first->second;
}

const MetricSeries* Monitor::find_series(const std::string& metric) const {
  auto it = series_.find(metric);
  return it != series_.end() ? &it->second : nullptr;
}

void Monitor::set_threshold(const std::string& metric, Threshold threshold) {
  thresholds_[metric] = threshold;
  consecutive_[metric] = 0;
}

void Monitor::clear_threshold(const std::string& metric) {
  thresholds_.erase(metric);
  consecutive_.erase(metric);
}

void Monitor::subscribe(ViolationHandler handler) {
  if (handler) handlers_.push_back(std::move(handler));
}

void Monitor::record(const std::string& metric, sim::TimePoint at,
                     double value) {
  series(metric).record(at, value);
  auto it = thresholds_.find(metric);
  if (it == thresholds_.end()) return;
  const Threshold& threshold = it->second;
  const bool out_of_bounds =
      (threshold.min.has_value() && value < *threshold.min) ||
      (threshold.max.has_value() && value > *threshold.max);
  int& streak = consecutive_[metric];
  if (!out_of_bounds) {
    streak = 0;
    return;
  }
  if (++streak < debounce_) return;
  ++violations_;
  Violation violation{metric, value, threshold, at, streak};
  for (const auto& handler : handlers_) handler(violation);
}

}  // namespace maqs::core
