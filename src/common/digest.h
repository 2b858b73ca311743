// FNV-1a, the repo-wide digest primitive.
//
// Every determinism fingerprint — the simulator's (time, seq) event digest,
// the sharded fold, the observability hub's aggregate and exemplar digests,
// policy content hashes — folds 64-bit words byte by byte through FnvMix from
// the same offset basis, so digests compose and one definition fixes them all.
#ifndef RPCSCOPE_SRC_COMMON_DIGEST_H_
#define RPCSCOPE_SRC_COMMON_DIGEST_H_

#include <cstdint>
#include <cstring>

namespace rpcscope {

inline constexpr uint64_t kFnvOffsetBasis = 14695981039346656037ull;
inline constexpr uint64_t kFnvPrime = 1099511628211ull;

// FNV-1a fold of one 64-bit word, low byte first.
inline uint64_t FnvMix(uint64_t digest, uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    digest ^= (word >> (8 * i)) & 0xff;
    digest *= kFnvPrime;
  }
  return digest;
}

// The IEEE-754 bit pattern of `value`, for folding doubles into a digest.
inline uint64_t DoubleBits(double value) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

}  // namespace rpcscope

#endif  // RPCSCOPE_SRC_COMMON_DIGEST_H_
