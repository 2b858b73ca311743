// Monarch-like metrics: counters sampled periodically into retained time
// series.
//
// The paper's Fig. 1 is built from exactly this kind of data: counters
// sampled every 30 minutes with a 700-day retention. MetricRegistry owns the
// live counters and, per counter, the TimeSeries of its sampled points, which
// answers range/rate queries. Distributions live in the observability hub
// (src/monitor/stream.h), not here.
#ifndef RPCSCOPE_SRC_MONITOR_METRICS_H_
#define RPCSCOPE_SRC_MONITOR_METRICS_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/common/time.h"

namespace rpcscope {

class CheckpointWriter;
class CheckpointReader;

// Monotonically increasing counter.
class Counter {
 public:
  void Increment(double delta = 1.0) { value_ += delta; }
  double value() const { return value_; }

 private:
  double value_ = 0;
};

struct TimePoint {
  SimTime time;
  double value;
};

// Retained samples for one metric stream.
class TimeSeries {
 public:
  void Append(SimTime time, double value) { points_.push_back({time, value}); }

  // Drops points older than `retention` before `now`.
  void Expire(SimTime now, SimDuration retention);

  const std::deque<TimePoint>& points() const { return points_; }

  // Values in [begin, end].
  std::vector<TimePoint> Range(SimTime begin, SimTime end) const;

  // Rate of change between consecutive cumulative samples over the window
  // [begin, end] (for counter streams): (v[i] - v[i-1]) / dt, per second.
  std::vector<TimePoint> RatePerSecond(SimTime begin, SimTime end) const;

 private:
  std::deque<TimePoint> points_;
};

// RPCSCOPE_CHECKPOINTED(MetricRegistry::CheckpointTo, MetricRegistry::RestoreFrom)
class MetricRegistry {
 public:
  struct Options {
    SimDuration sample_window = Minutes(30);
    SimDuration retention = Days(700);
  };

  MetricRegistry() : MetricRegistry(Options{}) {}
  explicit MetricRegistry(const Options& options) : options_(options) {}

  // Counters are created on first use and owned by the registry.
  Counter& GetCounter(const std::string& name);

  // Non-creating lookup, for cross-shard aggregation: summing registries
  // must not materialize counters on shards that never touched the metric.
  const Counter* FindCounter(const std::string& name) const;

  // Samples every counter's cumulative value into its time series at `now`.
  // Applies retention.
  void SampleAll(SimTime now);

  const TimeSeries* Series(const std::string& name) const;
  const Options& options() const { return options_; }

  // Checkpoint support. Counters serialize in sorted-name order (the maps
  // are unordered; checkpoint bytes must not be). Restore targets a registry
  // whose counters are freshly registered but never incremented — values
  // land in the *existing* Counter objects so pointers cached by components
  // at construction stay valid across a restore.
  [[nodiscard]] Status CheckpointTo(CheckpointWriter& w) const;
  [[nodiscard]] Status RestoreFrom(CheckpointReader& r);

 private:
  Options options_;
  std::unordered_map<std::string, std::unique_ptr<Counter>> counters_;
  std::unordered_map<std::string, TimeSeries> series_;
};

}  // namespace rpcscope

#endif  // RPCSCOPE_SRC_MONITOR_METRICS_H_
