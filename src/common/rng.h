// Deterministic pseudo-random number generation.
//
// Every randomized component in rpcscope takes an explicit seed so that all
// benchmarks and figure reproductions are bit-for-bit deterministic. The
// generator is xoshiro256**, seeded through SplitMix64 per the authors'
// recommendation; both are tiny, fast, and have well-understood quality.
#ifndef RPCSCOPE_SRC_COMMON_RNG_H_
#define RPCSCOPE_SRC_COMMON_RNG_H_

#include <cstdint>

namespace rpcscope {

// SplitMix64 step: advances `state` and returns the next 64-bit output.
// Used for seeding and for cheap stateless hashing of ids to parameters.
uint64_t SplitMix64(uint64_t& state);

// Stateless mix of a 64-bit value (one SplitMix64 output for a given input).
uint64_t Mix64(uint64_t value);

// xoshiro256** PRNG with distribution helpers.
//
// The full generator state is exposed as a plain-data State so checkpoints
// (src/checkpoint/) can persist a stream mid-sequence and resume it with the
// identical draw order; the cached Box-Muller pair is part of that state —
// dropping it would shift every subsequent gaussian by one draw.
// RPCSCOPE_CHECKPOINTED(SaveState, RestoreState)
class Rng {
 public:
  // Complete serializable generator state.
  struct State {
    uint64_t s[4] = {0, 0, 0, 0};
    bool has_cached_gaussian = false;
    double cached_gaussian = 0.0;
  };

  explicit Rng(uint64_t seed);

  State SaveState() const;
  void RestoreState(const State& state);

  // Uniform on [0, 2^64).
  uint64_t NextUint64();

  // Uniform on [0, bound). Precondition: bound > 0.
  uint64_t NextBounded(uint64_t bound);

  // Uniform double on [0, 1) with 53 bits of precision.
  double NextDouble();

  // Uniform double on (0, 1] — safe as an argument to log().
  double NextDoublePositive();

  // Standard normal via the polar Box-Muller method (caches the pair).
  double NextGaussian();

  // Exponential with the given mean (mean > 0).
  double NextExponential(double mean);

  // Lognormal: exp(mu + sigma * Z).
  double NextLognormal(double mu, double sigma);

  // Bernoulli with probability p (clamped to [0,1]).
  bool NextBool(double p);

  // Poisson-distributed count with the given mean (Knuth for small means,
  // normal approximation above 64 to stay O(1)).
  int64_t NextPoisson(double mean);

  // Derives an independent child generator; stream `i` of this rng.
  Rng Fork(uint64_t stream);

 private:
  uint64_t s_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace rpcscope

#endif  // RPCSCOPE_SRC_COMMON_RNG_H_
