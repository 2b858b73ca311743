// CRC32C (Castagnoli) checksum, table-driven software implementation
// (slice-by-8: eight input bytes per step, no intrinsics). Used to
// frame-check every RPC message on the simulated wire and every checkpoint
// section and file.
#ifndef RPCSCOPE_SRC_WIRE_CHECKSUM_H_
#define RPCSCOPE_SRC_WIRE_CHECKSUM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rpcscope {

uint32_t Crc32c(const uint8_t* data, size_t size);
uint32_t Crc32c(const std::vector<uint8_t>& data);

}  // namespace rpcscope

#endif  // RPCSCOPE_SRC_WIRE_CHECKSUM_H_
