#include "src/common/histogram.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace rpcscope {

LogHistogram::LogHistogram(const Options& options) : options_(options) {
  RPCSCOPE_CHECK_GT(options.min_value, 0);
  RPCSCOPE_CHECK_GT(options.max_value, options.min_value);
  RPCSCOPE_CHECK_GT(options.buckets_per_decade, 0);
  log_min_ = std::log10(options.min_value);
  inv_log_step_ = static_cast<double>(options.buckets_per_decade);
  const double decades = std::log10(options.max_value) - log_min_;
  const size_t core = static_cast<size_t>(std::ceil(decades * inv_log_step_)) + 1;
  buckets_.assign(core + 2, 0);  // +underflow +overflow
}

LogHistogram::State LogHistogram::SaveState() const {
  RPCSCOPE_DCHECK(log_min_ == std::log10(options_.min_value));
  RPCSCOPE_DCHECK(inv_log_step_ == static_cast<double>(options_.buckets_per_decade));
  State state;
  state.options = options_;
  state.buckets = buckets_;
  state.count = count_;
  state.sum = sum_;
  state.min = min_;
  state.max = max_;
  return state;
}

Status LogHistogram::RestoreState(const State& state) {
  if (!(state.options.min_value > 0) || !(state.options.max_value > state.options.min_value) ||
      state.options.buckets_per_decade <= 0) {
    return InvalidArgumentError("histogram state carries invalid options");
  }
  *this = LogHistogram(state.options);
  RPCSCOPE_DCHECK(log_min_ == std::log10(options_.min_value));
  RPCSCOPE_DCHECK(inv_log_step_ == static_cast<double>(options_.buckets_per_decade));
  if (state.buckets.size() != buckets_.size()) {
    return InvalidArgumentError("histogram state has " + std::to_string(state.buckets.size()) +
                                " buckets, options imply " + std::to_string(buckets_.size()));
  }
  buckets_ = state.buckets;
  count_ = state.count;
  sum_ = state.sum;
  min_ = state.min;
  max_ = state.max;
  return Status::Ok();
}

size_t LogHistogram::BucketIndex(double value) const {
  if (!(value >= options_.min_value)) {
    return 0;  // Underflow (also catches NaN defensively).
  }
  if (value >= options_.max_value) {
    return buckets_.size() - 1;  // Overflow.
  }
  const double pos = (std::log10(value) - log_min_) * inv_log_step_;
  size_t idx = static_cast<size_t>(pos) + 1;
  return std::min(idx, buckets_.size() - 2);
}

double LogHistogram::BucketLowerBound(size_t index) const {
  if (index == 0) {
    return 0.0;
  }
  return std::pow(10.0, log_min_ + static_cast<double>(index - 1) / inv_log_step_);
}

void LogHistogram::AddCount(double value, int64_t count) {
  RPCSCOPE_DCHECK_GE(count, 0);
  if (count == 0) {
    return;
  }
  buckets_[BucketIndex(value)] += count;
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  count_ += count;
  sum_ += value * static_cast<double>(count);
}

void LogHistogram::Merge(const LogHistogram& other) {
  // Merging mismatched layouts would silently misattribute counts to the
  // wrong value ranges; the sharded-metrics merge path depends on this being
  // loud, so it is a CHECK in all build types.
  RPCSCOPE_CHECK_EQ(options_.min_value, other.options_.min_value)
      << "LogHistogram::Merge: min_value mismatch";
  RPCSCOPE_CHECK_EQ(options_.max_value, other.options_.max_value)
      << "LogHistogram::Merge: max_value mismatch";
  RPCSCOPE_CHECK_EQ(options_.buckets_per_decade, other.options_.buckets_per_decade)
      << "LogHistogram::Merge: buckets_per_decade mismatch";
  RPCSCOPE_CHECK_EQ(buckets_.size(), other.buckets_.size())
      << "LogHistogram::Merge: bucket-layout mismatch";
  for (size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  if (other.count_ > 0) {
    if (count_ == 0) {
      min_ = other.min_;
      max_ = other.max_;
    } else {
      min_ = std::min(min_, other.min_);
      max_ = std::max(max_, other.max_);
    }
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

double LogHistogram::Quantile(double p) const {
  if (count_ == 0) {
    return 0.0;
  }
  p = std::clamp(p, 0.0, 1.0);
  const double target = p * static_cast<double>(count_);
  double cumulative = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    const double next = cumulative + static_cast<double>(buckets_[i]);
    if (next >= target && buckets_[i] > 0) {
      const double frac =
          buckets_[i] == 0 ? 0.0 : (target - cumulative) / static_cast<double>(buckets_[i]);
      double lo = BucketLowerBound(i);
      double hi = (i + 1 < buckets_.size()) ? BucketLowerBound(i + 1) : max_;
      lo = std::max(lo, min_);
      hi = std::min(std::max(hi, lo), max_);
      return lo + frac * (hi - lo);
    }
    cumulative = next;
  }
  return max_;
}

double LogHistogram::CdfAt(double x) const {
  if (count_ == 0) {
    return 0.0;
  }
  const size_t idx = BucketIndex(x);
  int64_t below = 0;
  for (size_t i = 0; i < idx; ++i) {
    below += buckets_[i];
  }
  // Interpolate within the containing bucket.
  double lo = BucketLowerBound(idx);
  double hi = (idx + 1 < buckets_.size()) ? BucketLowerBound(idx + 1) : max_;
  double frac = hi > lo ? std::clamp((x - lo) / (hi - lo), 0.0, 1.0) : 1.0;
  return (static_cast<double>(below) + frac * static_cast<double>(buckets_[idx])) /
         static_cast<double>(count_);
}

}  // namespace rpcscope
