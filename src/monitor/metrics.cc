#include "src/monitor/metrics.h"

#include <algorithm>
#include <utility>

#include "src/checkpoint/checkpoint.h"
#include "src/common/check.h"

namespace rpcscope {

namespace {

// Deterministic iteration order over an unordered map keyed by name.
template <typename Map>
std::vector<std::string> SortedKeys(const Map& map) {
  std::vector<std::string> keys;
  keys.reserve(map.size());
  for (const auto& [name, unused] : map) {
    keys.push_back(name);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace

void TimeSeries::Expire(SimTime now, SimDuration retention) {
  const SimTime cutoff = now - retention;
  while (!points_.empty() && points_.front().time < cutoff) {
    points_.pop_front();
  }
}

std::vector<TimePoint> TimeSeries::Range(SimTime begin, SimTime end) const {
  std::vector<TimePoint> out;
  for (const TimePoint& p : points_) {
    if (p.time >= begin && p.time <= end) {
      out.push_back(p);
    }
  }
  return out;
}

std::vector<TimePoint> TimeSeries::RatePerSecond(SimTime begin, SimTime end) const {
  std::vector<TimePoint> range = Range(begin, end);
  std::vector<TimePoint> out;
  for (size_t i = 1; i < range.size(); ++i) {
    const SimDuration dt = range[i].time - range[i - 1].time;
    if (dt <= 0) {
      continue;
    }
    out.push_back({range[i].time, (range[i].value - range[i - 1].value) / ToSeconds(dt)});
  }
  return out;
}

Counter& MetricRegistry::GetCounter(const std::string& name) {
  auto& slot = counters_[name];
  if (!slot) {
    slot = std::make_unique<Counter>();
  }
  return *slot;
}

const Counter* MetricRegistry::FindCounter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

void MetricRegistry::SampleAll(SimTime now) {
  for (const auto& [name, counter] : counters_) {
    TimeSeries& ts = series_[name];
    ts.Append(now, counter->value());
    ts.Expire(now, options_.retention);
  }
}

const TimeSeries* MetricRegistry::Series(const std::string& name) const {
  auto it = series_.find(name);
  return it == series_.end() ? nullptr : &it->second;
}

Status MetricRegistry::CheckpointTo(CheckpointWriter& w) const {
  w.BeginSection("metrics");
  w.WriteI64(options_.sample_window);
  w.WriteI64(options_.retention);
  w.WriteU32(static_cast<uint32_t>(counters_.size()));
  for (const std::string& name : SortedKeys(counters_)) {
    w.WriteString(name);
    w.WriteDouble(counters_.at(name)->value());
  }
  w.WriteU32(static_cast<uint32_t>(series_.size()));
  for (const std::string& name : SortedKeys(series_)) {
    w.WriteString(name);
    const std::deque<TimePoint>& points = series_.at(name).points();
    w.WriteU32(static_cast<uint32_t>(points.size()));
    for (const TimePoint& p : points) {
      w.WriteI64(p.time);
      w.WriteDouble(p.value);
    }
  }
  w.EndSection();
  return Status::Ok();
}

Status MetricRegistry::RestoreFrom(CheckpointReader& r) {
  if (Status s = r.EnterSection("metrics"); !s.ok()) {
    return s;
  }
  const SimDuration sample_window = r.ReadI64();
  const SimDuration retention = r.ReadI64();

  // Read everything into locals first; nothing is applied until the section
  // parses clean and the configuration matches.
  std::vector<std::pair<std::string, double>> counters;
  const uint32_t num_counters = r.ReadU32();
  for (uint32_t i = 0; i < num_counters && r.status().ok(); ++i) {
    std::string name = r.ReadString();
    const double value = r.ReadDouble();
    counters.emplace_back(std::move(name), value);
  }
  std::vector<std::pair<std::string, TimeSeries>> series;
  const uint32_t num_series = r.ReadU32();
  for (uint32_t i = 0; i < num_series && r.status().ok(); ++i) {
    std::string name = r.ReadString();
    const uint32_t num_points = r.ReadU32();
    TimeSeries ts;
    for (uint32_t j = 0; j < num_points && r.status().ok(); ++j) {
      const SimTime time = r.ReadI64();
      const double value = r.ReadDouble();
      ts.Append(time, value);
    }
    series.emplace_back(std::move(name), std::move(ts));
  }
  if (Status s = r.LeaveSection(); !s.ok()) {
    return s;
  }
  if (sample_window != options_.sample_window || retention != options_.retention) {
    return FailedPreconditionError("metrics: registry options mismatch");
  }

  // Values land in the existing counters (created during fleet
  // construction) so Counter* pointers cached by components survive.
  for (const auto& [name, value] : counters) {
    Counter& c = GetCounter(name);
    if (c.value() != 0.0) {
      return FailedPreconditionError("metrics: restore into non-zero counter " + name);
    }
    c.Increment(value);
    RPCSCOPE_DCHECK(counters_.count(name) == 1);
  }
  series_.clear();
  for (auto& [name, ts] : series) {
    series_.emplace(std::move(name), std::move(ts));
  }
  return Status::Ok();
}

}  // namespace rpcscope
