// Empirical distributions used by the generative fleet model.
//
// The calibration strategy throughout rpcscope is quantile-anchored: the paper
// reports distributions by their quantiles (e.g. "90% of methods have a median
// latency of 10.7 ms or greater"), so QuantileCurve lets us construct a
// distribution directly from a set of (probability, value) anchors with
// log-linear interpolation between them. DiscreteDist and ZipfWeights draw
// the method popularity table; per-RPC lognormal draws use Rng directly.
#ifndef RPCSCOPE_SRC_COMMON_DISTRIBUTIONS_H_
#define RPCSCOPE_SRC_COMMON_DISTRIBUTIONS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/rng.h"

namespace rpcscope {

// A distribution defined by quantile anchors (p_i, v_i), 0 < p_i < 1 strictly
// increasing, v_i > 0 non-decreasing. Quantile(p) interpolates log(v)
// linearly in p; beyond the outermost anchors the curve extrapolates with the
// slope of the nearest segment, clamped to [min_value, max_value].
class QuantileCurve {
 public:
  struct Anchor {
    double p;
    double value;
  };

  QuantileCurve(std::vector<Anchor> anchors, double min_value, double max_value);

  // Inverse-CDF evaluation at probability p in [0, 1].
  double Quantile(double p) const;

 private:
  std::vector<Anchor> anchors_;  // Stored with log(value).
  double min_value_;
  double max_value_;
};

// Discrete distribution over {0..n-1} with arbitrary weights, sampled in O(1)
// via Walker's alias method. Used for the 10K-method popularity table, where
// per-sample cost matters (millions of draws per figure).
class DiscreteDist {
 public:
  explicit DiscreteDist(const std::vector<double>& weights);

  int64_t Sample(Rng& rng) const;
  size_t size() const { return prob_.size(); }

 private:
  std::vector<double> prob_;
  std::vector<int64_t> alias_;
};

// Zipf-like rank weights: weight(rank) = 1 / (rank + offset)^exponent.
// Returns unnormalized weights for ranks 1..n.
std::vector<double> ZipfWeights(size_t n, double exponent, double offset);

}  // namespace rpcscope

#endif  // RPCSCOPE_SRC_COMMON_DISTRIBUTIONS_H_
