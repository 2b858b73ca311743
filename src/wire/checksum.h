// CRC32C (Castagnoli) checksum, table-driven software implementation
// (slice-by-8: eight input bytes per step, no intrinsics). Used to
// frame-check every RPC message on the simulated wire and every checkpoint
// section and file.
//
// Besides the one-shot Crc32c, a CRC can be extended over more bytes, and the
// CRCs of two adjacent byte runs combine into the CRC of their concatenation
// in O(log n) time without reading the bytes again (the x^(8n) mod P method
// zlib's crc32_combine uses, over the Castagnoli polynomial). Checkpoint
// writes use this to hash each retained span once per run, not once per
// checkpoint.
#ifndef RPCSCOPE_SRC_WIRE_CHECKSUM_H_
#define RPCSCOPE_SRC_WIRE_CHECKSUM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rpcscope {

uint32_t Crc32c(const uint8_t* data, size_t size);
uint32_t Crc32c(const std::vector<uint8_t>& data);

// The CRC32C of A followed by `data`, given crc = Crc32c(A).
uint32_t Crc32cExtend(uint32_t crc, const uint8_t* data, size_t size);

// The CRC32C of A followed by B, given crc_a = Crc32c(A), crc_b = Crc32c(B)
// and size_b = |B|.
uint32_t Crc32cCombine(uint32_t crc_a, uint32_t crc_b, uint64_t size_b);

// A growing byte buffer that keeps the CRC32C of its contents current: every
// append hashes only the bytes it added, so the pair never disagrees and no
// byte is hashed twice.
class ChecksummedBytes {
 public:
  // Calls append(buffer), which may only append to `buffer`, then extends the
  // CRC over what it appended.
  template <typename AppendFn>
  void Append(AppendFn&& append) {
    const size_t before = bytes_.size();
    append(bytes_);
    crc32c_ = Crc32cExtend(crc32c_, bytes_.data() + before, bytes_.size() - before);
  }

  void Clear() {
    bytes_.clear();
    crc32c_ = 0;
  }

  const std::vector<uint8_t>& bytes() const { return bytes_; }
  uint32_t crc32c() const { return crc32c_; }  // == Crc32c(bytes()).

 private:
  std::vector<uint8_t> bytes_;
  uint32_t crc32c_ = 0;
};

}  // namespace rpcscope

#endif  // RPCSCOPE_SRC_WIRE_CHECKSUM_H_
