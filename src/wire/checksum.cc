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

// Little-endian load independent of host byte order and alignment; compilers
// turn it into one unaligned load on little-endian targets.
uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32c(const uint8_t* data, size_t size) {
  uint32_t crc = 0xffffffff;
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

uint32_t Crc32c(const std::vector<uint8_t>& data) { return Crc32c(data.data(), data.size()); }

}  // namespace rpcscope
