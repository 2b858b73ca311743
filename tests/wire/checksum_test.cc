#include "src/wire/checksum.h"

#include <gtest/gtest.h>

#include <string>

namespace rpcscope {
namespace {

std::vector<uint8_t> Bytes(const std::string& s) { return {s.begin(), s.end()}; }

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 test vector: 32 bytes of zeros.
  std::vector<uint8_t> zeros(32, 0);
  EXPECT_EQ(Crc32c(zeros), 0x8a9136aau);
  // 32 bytes of 0xff.
  std::vector<uint8_t> ones(32, 0xff);
  EXPECT_EQ(Crc32c(ones), 0x62a8ab43u);
  // "123456789" standard check value.
  EXPECT_EQ(Crc32c(Bytes("123456789")), 0xe3069283u);
}

TEST(Crc32cTest, EmptyIsZero) { EXPECT_EQ(Crc32c(std::vector<uint8_t>{}), 0u); }

TEST(Crc32cTest, SensitiveToSingleBitFlip) {
  auto data = Bytes("the quick brown fox");
  const uint32_t before = Crc32c(data);
  data[5] ^= 0x01;
  EXPECT_NE(Crc32c(data), before);
}

TEST(Crc32cTest, DeterministicAcrossCalls) {
  auto data = Bytes("determinism");
  EXPECT_EQ(Crc32c(data), Crc32c(data));
}

// Bit-at-a-time CRC32C straight from the polynomial: no tables to share a
// bug with the implementation under test.
uint32_t BitwiseCrc32c(const uint8_t* data, size_t size) {
  uint32_t crc = 0xffffffff;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ 0x82f63b78 : crc >> 1;
    }
  }
  return crc ^ 0xffffffff;
}

TEST(Crc32cTest, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  // Every 8-byte block boundary and tail length, starting at every offset
  // mod 8, over bytes that exercise all table lanes.
  std::vector<uint8_t> buffer(257 + 8);
  uint32_t x = 0x9e3779b9;
  for (uint8_t& b : buffer) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<uint8_t>(x >> 24);
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= 257; ++length) {
      const uint8_t* data = buffer.data() + offset;
      ASSERT_EQ(Crc32c(data, length), BitwiseCrc32c(data, length))
          << "offset " << offset << " length " << length;
    }
  }
}

}  // namespace
}  // namespace rpcscope
