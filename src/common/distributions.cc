#include "src/common/distributions.h"

#include <algorithm>
#include <cmath>
#include <deque>

#include "src/common/check.h"

namespace rpcscope {

QuantileCurve::QuantileCurve(std::vector<Anchor> anchors, double min_value, double max_value)
    : min_value_(min_value), max_value_(max_value) {
  RPCSCOPE_CHECK_GE(anchors.size(), 2u);
  anchors_.reserve(anchors.size());
  for (const Anchor& a : anchors) {
    RPCSCOPE_CHECK(a.p > 0.0 && a.p < 1.0) << "anchor p " << a.p;
    RPCSCOPE_CHECK_GT(a.value, 0.0);
    anchors_.push_back({a.p, std::log(a.value)});
  }
  for (size_t i = 1; i < anchors_.size(); ++i) {
    RPCSCOPE_CHECK_GT(anchors_[i].p, anchors_[i - 1].p);
    RPCSCOPE_CHECK_GE(anchors_[i].value, anchors_[i - 1].value);
  }
}

double QuantileCurve::Quantile(double p) const {
  p = std::clamp(p, 1e-9, 1.0 - 1e-9);
  size_t hi = 0;
  while (hi < anchors_.size() && anchors_[hi].p < p) {
    ++hi;
  }
  double log_v;
  if (hi == 0) {
    // Extrapolate below the first anchor using the first segment's slope.
    const auto& a0 = anchors_[0];
    const auto& a1 = anchors_[1];
    const double slope = (a1.value - a0.value) / (a1.p - a0.p);
    log_v = a0.value + slope * (p - a0.p);
  } else if (hi == anchors_.size()) {
    const auto& a0 = anchors_[anchors_.size() - 2];
    const auto& a1 = anchors_.back();
    const double slope = (a1.value - a0.value) / (a1.p - a0.p);
    log_v = a1.value + slope * (p - a1.p);
  } else {
    const auto& a0 = anchors_[hi - 1];
    const auto& a1 = anchors_[hi];
    const double t = (p - a0.p) / (a1.p - a0.p);
    log_v = a0.value + t * (a1.value - a0.value);
  }
  return std::clamp(std::exp(log_v), min_value_, max_value_);
}

DiscreteDist::DiscreteDist(const std::vector<double>& weights) {
  RPCSCOPE_CHECK(!weights.empty());
  const size_t n = weights.size();
  prob_.assign(n, 0.0);
  alias_.assign(n, 0);
  double total = 0;
  for (double w : weights) {
    RPCSCOPE_CHECK_GE(w, 0);
    total += w;
  }
  RPCSCOPE_CHECK_GT(total, 0);

  // Walker's alias method: partition scaled probabilities into "small" and
  // "large" and pair them so every column has unit mass.
  std::vector<double> scaled(n);
  for (size_t i = 0; i < n; ++i) {
    scaled[i] = weights[i] * static_cast<double>(n) / total;
  }
  std::deque<size_t> small, large;
  for (size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(i);
  }
  while (!small.empty() && !large.empty()) {
    const size_t s = small.front();
    small.pop_front();
    const size_t l = large.front();
    large.pop_front();
    prob_[s] = scaled[s];
    alias_[s] = static_cast<int64_t>(l);
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  for (size_t i : large) {
    prob_[i] = 1.0;
  }
  for (size_t i : small) {
    prob_[i] = 1.0;  // Numerical leftovers.
  }
}

int64_t DiscreteDist::Sample(Rng& rng) const {
  const size_t column = static_cast<size_t>(rng.NextBounded(prob_.size()));
  return rng.NextDouble() < prob_[column] ? static_cast<int64_t>(column) : alias_[column];
}

std::vector<double> ZipfWeights(size_t n, double exponent, double offset) {
  std::vector<double> weights(n);
  for (size_t i = 0; i < n; ++i) {
    weights[i] = 1.0 / std::pow(static_cast<double>(i + 1) + offset, exponent);
  }
  return weights;
}

}  // namespace rpcscope
