#include "src/common/rng.h"

#include <cmath>

namespace rpcscope {

namespace {

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

uint64_t SplitMix64(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Mix64(uint64_t value) {
  uint64_t state = value;
  return SplitMix64(state);
}

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& lane : s_) {
    lane = SplitMix64(sm);
  }
}

Rng::State Rng::SaveState() const {
  State state;
  for (int i = 0; i < 4; ++i) {
    state.s[i] = s_[i];
  }
  state.has_cached_gaussian = has_cached_gaussian_;
  state.cached_gaussian = cached_gaussian_;
  return state;
}

void Rng::RestoreState(const State& state) {
  for (int i = 0; i < 4; ++i) {
    s_[i] = state.s[i];
  }
  has_cached_gaussian_ = state.has_cached_gaussian;
  cached_gaussian_ = state.cached_gaussian;
}

uint64_t Rng::NextUint64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  // Lemire's multiply-shift rejection method.
  uint64_t x = NextUint64();
  __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
  uint64_t low = static_cast<uint64_t>(m);
  if (low < bound) {
    uint64_t threshold = -bound % bound;
    while (low < threshold) {
      x = NextUint64();
      m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
      low = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

double Rng::NextDouble() {
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::NextDoublePositive() {
  return (static_cast<double>(NextUint64() >> 11) + 1.0) * 0x1.0p-53;
}

double Rng::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u, v, s;
  do {
    u = 2.0 * NextDouble() - 1.0;
    v = 2.0 * NextDouble() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  cached_gaussian_ = v * factor;
  has_cached_gaussian_ = true;
  return u * factor;
}

double Rng::NextExponential(double mean) { return -mean * std::log(NextDoublePositive()); }

double Rng::NextLognormal(double mu, double sigma) {
  return std::exp(mu + sigma * NextGaussian());
}

bool Rng::NextBool(double p) { return NextDouble() < p; }

int64_t Rng::NextPoisson(double mean) {
  if (mean <= 0) {
    return 0;
  }
  if (mean > 64.0) {
    // Normal approximation with continuity correction; adequate for workload
    // generation at high arrival counts.
    double v = mean + std::sqrt(mean) * NextGaussian() + 0.5;
    return v < 0 ? 0 : static_cast<int64_t>(v);
  }
  const double limit = std::exp(-mean);
  double product = NextDouble();
  int64_t count = 0;
  while (product > limit) {
    product *= NextDouble();
    ++count;
  }
  return count;
}

Rng Rng::Fork(uint64_t stream) {
  uint64_t base = s_[0] ^ Rotl(s_[2], 13);
  return Rng(Mix64(base ^ Mix64(stream)));
}

}  // namespace rpcscope
