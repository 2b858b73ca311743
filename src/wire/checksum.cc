#include "src/wire/checksum.h"

#include <array>

namespace rpcscope {

namespace {

constexpr uint32_t kPoly = 0x82f63b78;  // CRC32C reflected polynomial.

// Slice-by-8 tables: kTables[0] is the classic byte-at-a-time table, and
// kTables[k][b] is the CRC of byte b followed by k zero bytes, so eight input
// bytes fold into the running CRC with eight independent lookups.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Tables BuildTables() {
  Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    tables[0][i] = crc;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xff];
    }
  }
  return tables;
}

constexpr Tables kTables = BuildTables();

// Product of two polynomials modulo P, in the CRC's reflected bit order: bit
// 31 holds the x^0 coefficient and bit 0 the x^31 one.
constexpr uint32_t MultiplyModP(uint32_t a, uint32_t b) {
  uint32_t product = 0;
  for (uint32_t term = 1u << 31; term != 0; term >>= 1) {
    if (a & term) {
      product ^= b;
    }
    b = (b & 1) ? (b >> 1) ^ kPoly : b >> 1;  // b *= x.
  }
  return product;
}

// kXPow8Pow2[k] = x^(8 * 2^k) mod P: the operator that shifts a CRC past
// 2^k zero bytes. 64 entries cover every 64-bit byte count.
using PowerTable = std::array<uint32_t, 64>;

constexpr PowerTable BuildPowerTable() {
  PowerTable table{};
  uint32_t power = 1u << 23;  // x^8.
  for (uint32_t& entry : table) {
    entry = power;
    power = MultiplyModP(power, power);
  }
  return table;
}

constexpr PowerTable kXPow8Pow2 = BuildPowerTable();

// Little-endian load independent of host byte order and alignment; compilers
// turn it into one unaligned load on little-endian targets.
uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32c(const uint8_t* data, size_t size) { return Crc32cExtend(0, data, size); }

uint32_t Crc32c(const std::vector<uint8_t>& data) { return Crc32c(data.data(), data.size()); }

uint32_t Crc32cExtend(uint32_t crc, const uint8_t* data, size_t size) {
  crc ^= 0xffffffff;
  for (; size >= 8; data += 8, size -= 8) {
    const uint32_t lo = crc ^ LoadLe32(data);
    const uint32_t hi = LoadLe32(data + 4);
    crc = kTables[7][lo & 0xff] ^ kTables[6][(lo >> 8) & 0xff] ^
          kTables[5][(lo >> 16) & 0xff] ^ kTables[4][lo >> 24] ^ kTables[3][hi & 0xff] ^
          kTables[2][(hi >> 8) & 0xff] ^ kTables[1][(hi >> 16) & 0xff] ^ kTables[0][hi >> 24];
  }
  for (; size > 0; ++data, --size) {
    crc = (crc >> 8) ^ kTables[0][(crc ^ *data) & 0xff];
  }
  return crc ^ 0xffffffff;
}

uint32_t Crc32cCombine(uint32_t crc_a, uint32_t crc_b, uint64_t size_b) {
  // CRC(A || B) = CRC(A) * x^(8|B|) + CRC(B) mod P: the pre- and post-
  // conditioning terms cancel, so finished CRCs combine directly.
  uint32_t shift = 1u << 31;  // x^0.
  for (size_t k = 0; size_b != 0; size_b >>= 1, ++k) {
    if (size_b & 1) {
      shift = MultiplyModP(kXPow8Pow2[k], shift);
    }
  }
  return MultiplyModP(shift, crc_a) ^ crc_b;
}

}  // namespace rpcscope
