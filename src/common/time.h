// Simulation time: a signed 64-bit nanosecond count since simulation start.
//
// All latencies in the study range from sub-microsecond stack operations to
// multi-second tail RPCs and 700-day retention windows; int64 nanoseconds
// covers ±292 years, which is ample.
#ifndef RPCSCOPE_SRC_COMMON_TIME_H_
#define RPCSCOPE_SRC_COMMON_TIME_H_

#include <cstdint>
#include <string>

namespace rpcscope {

// Instants and durations share a representation; the type alias documents intent.
using SimTime = int64_t;      // Nanoseconds since simulation epoch.
using SimDuration = int64_t;  // Nanoseconds.

constexpr SimTime kMinSimTime = INT64_MIN;
constexpr SimTime kMaxSimTime = INT64_MAX;

constexpr SimDuration kNanosecond = 1;
constexpr SimDuration kMicrosecond = 1000;
constexpr SimDuration kMillisecond = 1000 * kMicrosecond;
constexpr SimDuration kSecond = 1000 * kMillisecond;
constexpr SimDuration kMinute = 60 * kSecond;
constexpr SimDuration kHour = 60 * kMinute;
constexpr SimDuration kDay = 24 * kHour;

constexpr SimDuration Nanos(int64_t n) { return n; }
constexpr SimDuration Micros(int64_t n) { return n * kMicrosecond; }
constexpr SimDuration Millis(int64_t n) { return n * kMillisecond; }
constexpr SimDuration Seconds(int64_t n) { return n * kSecond; }
constexpr SimDuration Minutes(int64_t n) { return n * kMinute; }
constexpr SimDuration Hours(int64_t n) { return n * kHour; }
constexpr SimDuration Days(int64_t n) { return n * kDay; }

// Saturating instant + duration addition: clamps to the SimTime range
// instead of wrapping. `Simulator::Schedule` routes through this so a
// caller passing "effectively forever" (e.g. INT64_MAX) schedules at the far
// end of virtual time rather than silently wrapping into the past in release
// builds.
constexpr SimTime AddClamped(SimTime t, SimDuration d) {
  if (d >= 0) {
    return t > kMaxSimTime - d ? kMaxSimTime : t + d;
  }
  return t < kMinSimTime - d ? kMinSimTime : t + d;
}

// Conversions to floating-point units (for statistics and reporting).
constexpr double ToMicros(SimDuration d) { return static_cast<double>(d) / kMicrosecond; }
constexpr double ToMillis(SimDuration d) { return static_cast<double>(d) / kMillisecond; }
constexpr double ToSeconds(SimDuration d) { return static_cast<double>(d) / kSecond; }

// Converts a floating-point duration in seconds to SimDuration, rounding to
// the nearest nanosecond and saturating negative inputs at zero.
SimDuration DurationFromSeconds(double seconds);
SimDuration DurationFromMillis(double millis);
SimDuration DurationFromMicros(double micros);

// Renders a duration with an auto-selected unit, e.g. "657us", "10.7ms", "5.0s".
std::string FormatDuration(SimDuration d);

}  // namespace rpcscope

#endif  // RPCSCOPE_SRC_COMMON_TIME_H_
