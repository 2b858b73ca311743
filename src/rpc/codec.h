// On-wire encoding of RPC payloads: serialize -> compress -> encrypt -> frame.
//
// Real payloads go through the full byte pipeline (Message serialization,
// Ratel compression, stream-cipher encryption, CRC32C framing); modeled
// payloads compute the same sizes from the assumed compression ratio without
// materializing bytes. The codec produces *bytes and sizes* only; the cycle
// cost of each stage is charged separately by the tax pipeline, under the
// baseline stage-cost profile (src/rpc/stage_model.h, docs/TAX.md); the
// offline what-if's offload profiles reprice stages without changing what
// goes on the wire. Frame layout:
//   [u8 flags][varint payload_bytes][varint body_len][u32 crc][u64 nonce][body]
#ifndef RPCSCOPE_SRC_RPC_CODEC_H_
#define RPCSCOPE_SRC_RPC_CODEC_H_

#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/rpc/payload.h"
#include "src/wire/compressor.h"

namespace rpcscope {

struct WireFrame {
  bool real = false;
  int64_t payload_bytes = 0;  // Uncompressed serialized size.
  int64_t wire_bytes = 0;     // Frame size on the wire (body + header).
  std::vector<uint8_t> body;  // Encrypted compressed bytes (real mode only).
  uint32_t crc = 0;
  uint64_t nonce = 0;
};

// Reusable per-endpoint working buffers for the encode/decode byte pipeline.
// Client and Server each own one and pass it to every frame they process, so
// steady-state serialization, compression, and decryption run entirely in
// recycled storage (docs/PERF.md). The simulation is single-threaded; one
// scratch per endpoint is safe because frames are encoded/decoded one at a
// time, never nested.
struct WireScratch {
  std::vector<uint8_t> serialized;    // Encode: pre-compression message bytes.
  std::vector<uint8_t> decrypted;     // Decode: body after the cipher pass.
  std::vector<uint8_t> decompressed;  // Decode: bytes handed to Message::Parse.
  RatelScratch lz;                    // Compressor hash-chain state (~256 KiB).
};

// Encodes a payload for transmission. `key` is the channel encryption key and
// `nonce` must be unique per message (the span id is used in practice).
// `scratch` holds the intermediate buffers; the returned frame owns only its
// final body bytes.
WireFrame EncodeFrame(const Payload& payload, uint64_t key, uint64_t nonce,
                      WireScratch& scratch);

// Convenience wrapper with throwaway scratch (cold paths, tests).
WireFrame EncodeFrame(const Payload& payload, uint64_t key, uint64_t nonce);

// Decodes a frame back into a payload: decrypt, CRC-check, decompress, parse.
// Modeled frames decode to an equivalent modeled payload.
[[nodiscard]] Result<Payload> DecodeFrame(const WireFrame& frame, uint64_t key,
                                          WireScratch& scratch);

// Convenience wrapper with throwaway scratch (cold paths, tests).
[[nodiscard]] Result<Payload> DecodeFrame(const WireFrame& frame, uint64_t key);

// Frame header overhead in bytes (flags + sizes + crc + nonce).
constexpr int64_t kFrameHeaderBytes = 24;

// What the payload would have cost on the wire had it been encoded, using the
// payload's assumed compression ratio (the same estimate the modeled encode
// path charges). The colocated fast path uses it to compute the avoided
// networking/checksum byte terms without running the pipeline it bypassed.
int64_t EstimateWireBytes(const Payload& payload);

}  // namespace rpcscope

#endif  // RPCSCOPE_SRC_RPC_CODEC_H_
