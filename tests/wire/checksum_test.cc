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

// Bytes that exercise all table lanes (an LCG's high byte).
std::vector<uint8_t> PseudoRandomBytes(size_t size) {
  std::vector<uint8_t> buffer(size);
  uint32_t x = 0x9e3779b9;
  for (uint8_t& b : buffer) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<uint8_t>(x >> 24);
  }
  return buffer;
}

// Checks extension and combination of buffer[0, split) with buffer[split,
// size) against the reference CRC of the whole buffer.
void ExpectSplitMatchesReference(const std::vector<uint8_t>& buffer, size_t split,
                                 uint32_t reference) {
  const uint8_t* tail = buffer.data() + split;
  const size_t tail_size = buffer.size() - split;
  const uint32_t head_crc = Crc32c(buffer.data(), split);
  EXPECT_EQ(Crc32cExtend(head_crc, tail, tail_size), reference) << "split " << split;
  EXPECT_EQ(Crc32cCombine(head_crc, Crc32c(tail, tail_size), tail_size), reference)
      << "split " << split;
}

TEST(Crc32cTest, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  // Every 8-byte block boundary and tail length, starting at every offset
  // mod 8.
  const std::vector<uint8_t> buffer = PseudoRandomBytes(257 + 8);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= 257; ++length) {
      const uint8_t* data = buffer.data() + offset;
      ASSERT_EQ(Crc32c(data, length), BitwiseCrc32c(data, length))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(Crc32cTest, ExtendAndCombineMatchBitwiseReferenceAtEverySplit) {
  // Every split of the 257-byte buffer, empty head and empty tail included.
  const std::vector<uint8_t> buffer = PseudoRandomBytes(257);
  const uint32_t reference = BitwiseCrc32c(buffer.data(), buffer.size());
  for (size_t split = 0; split <= buffer.size(); ++split) {
    ExpectSplitMatchesReference(buffer, split, reference);
  }
}

TEST(Crc32cTest, ExtendAndCombineMatchBitwiseReferenceOverMebibytes) {
  // Tails past 2^22 bytes use the power table's higher entries.
  const std::vector<uint8_t> buffer = PseudoRandomBytes((size_t{4} << 20) + 13);
  const uint32_t reference = BitwiseCrc32c(buffer.data(), buffer.size());
  for (const size_t split : {size_t{0}, size_t{1}, size_t{4097}, buffer.size() / 2,
                             buffer.size() - 7, buffer.size()}) {
    ExpectSplitMatchesReference(buffer, split, reference);
  }
}

TEST(Crc32cTest, ChecksummedBytesTracksItsContents) {
  const std::vector<uint8_t> source = PseudoRandomBytes(1000);
  ChecksummedBytes bytes;
  EXPECT_EQ(bytes.crc32c(), 0u);
  for (const size_t piece : {size_t{0}, size_t{3}, size_t{250}, size_t{747}}) {
    bytes.Append([&](std::vector<uint8_t>& out) {
      const auto from = source.begin() + static_cast<ptrdiff_t>(out.size());
      out.insert(out.end(), from, from + static_cast<ptrdiff_t>(piece));
    });
    EXPECT_EQ(bytes.crc32c(), BitwiseCrc32c(bytes.bytes().data(), bytes.bytes().size()));
  }
  EXPECT_EQ(bytes.bytes(), source);
  bytes.Clear();
  EXPECT_TRUE(bytes.bytes().empty());
  EXPECT_EQ(bytes.crc32c(), 0u);
}

}  // namespace
}  // namespace rpcscope
