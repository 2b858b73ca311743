// CPU cycle cost model for RPC stack operations.
//
// Every stack stage charges cycles as fixed + per-packet + per-byte terms;
// cycles convert to virtual time via the machine clock. Coefficient
// calibration, figure provenance, and the stage rules that reprice these
// terms live in docs/TAX.md.
#ifndef RPCSCOPE_SRC_RPC_COST_MODEL_H_
#define RPCSCOPE_SRC_RPC_COST_MODEL_H_

#include <array>
#include <cmath>
#include <cstdint>
#include <string_view>

#include "src/common/time.h"

namespace rpcscope {

// Cycle-consuming categories of the RPC cycle tax (Fig. 20b), plus
// application cycles for totals.
enum class CycleCategory : int32_t {
  kCompression = 0,
  kNetworking = 1,     // Kernel/user network stack processing.
  kSerialization = 2,  // Marshal + unmarshal.
  kRpcLibrary = 3,     // Stub dispatch, channel bookkeeping.
  kEncryption = 4,
  kChecksum = 5,
  kApplication = 6,    // Handler cycles (not part of the tax).
};

constexpr int kNumCycleCategories = 7;
constexpr int kNumTaxCategories = 6;  // All but kApplication.

// Compile-time sync guards: the counts above, the tax-stage loops
// (`for i in [0, kNumTaxCategories)`), and the name table in cost_model.cc
// all assume kApplication is the last enumerator. Growing the enum without
// updating the constants (or vice versa) must not compile.
static_assert(static_cast<int32_t>(CycleCategory::kApplication) ==
                  kNumCycleCategories - 1,
              "kApplication must be the last CycleCategory and "
              "kNumCycleCategories must count every enumerator");
static_assert(kNumTaxCategories == kNumCycleCategories - 1,
              "every category except kApplication is a tax category");

std::string_view CycleCategoryName(CycleCategory c);

// Per-call cycle accounting.
struct CycleBreakdown {
  std::array<double, kNumCycleCategories> cycles{};

  double& operator[](CycleCategory c) { return cycles[static_cast<size_t>(c)]; }
  double operator[](CycleCategory c) const { return cycles[static_cast<size_t>(c)]; }

  double Total() const;
  double TaxTotal() const;  // Total minus application cycles.

  void Accumulate(const CycleBreakdown& other);
};

// One stage's cycles for one message direction, split by what they scale
// with. Total() is what the host pipeline charges; its association is the
// determinism contract (docs/TAX.md#determinism).
struct StageTerms {
  double fixed = 0;       // Per message.
  double per_packet = 0;  // Per 1500-byte packet (networking only).
  double per_byte = 0;

  double Total() const { return (fixed + per_packet) + per_byte; }
};

struct CycleCostModel {
  double cycles_per_second = 3.0e9;  // Machine clock for cycle -> time.

  // Serialization / parsing.
  double serialize_fixed = 280;
  double serialize_per_byte = 0.85;
  double parse_fixed = 330;
  double parse_per_byte = 1.0;

  // Compression (compress on send, decompress on receive).
  double compress_fixed = 250;
  double compress_per_byte = 5.0;
  double decompress_fixed = 150;
  double decompress_per_byte = 1.4;

  // Encryption (symmetric per direction; AES-NI-class throughput).
  double encrypt_per_byte = 0.25;
  double encrypt_fixed = 100;

  // Checksumming (hardware CRC32C-class).
  double checksum_per_byte = 0.04;

  // Network stack: per message plus per 1500-byte packet plus per byte.
  double netstack_fixed = 1100;
  double netstack_per_packet = 300;
  double netstack_per_byte = 0.45;

  // RPC library bookkeeping per call per side.
  double rpclib_fixed_per_side = 1800;

  // Normalization divisor converting raw cycles to the paper's
  // "normalized CPU cycles" unit (Fig. 21 plots most methods between
  // ~0.01 and ~10 in that unit).
  double normalization_cycles = 1.0e6;

  // Converts cycles to virtual time on a machine running at
  // `cycles_per_second * speed`, where speed captures per-machine
  // heterogeneity (CPU generations).
  SimDuration CyclesToDuration(double cycles, double speed = 1.0) const;

  // The cycles `stage` (a tax category, not kApplication) costs for one
  // direction of one message; the only place the coefficients above are
  // applied. Tax profiles (src/rpc/stage_model.h) price every message through
  // it. `payload_bytes` is the uncompressed serialized size; `wire_bytes` the
  // post-compression on-wire size. `byte_cost_scale` discounts the per-byte
  // and per-packet terms for blob-style channels (storage byte pipes use flat
  // single-field payloads, zero-copy paths, and NIC checksum offload — this
  // is what lets Network Disk carry the most bytes in the fleet at <2% of
  // fleet cycles, Fig. 8). Defined inline below: every message side calls it
  // once per stage.
  StageTerms Stage(CycleCategory stage, bool send, int64_t payload_bytes, int64_t wire_bytes,
                   double byte_cost_scale = 1.0) const;

  // Cost of handing a payload to a colocated peer by shared buffer
  // (docs/POLICY.md#colocated-bypass): only the RPC library bookkeeping is
  // still charged per side — no serialize/compress/encrypt/checksum/netstack
  // work happens. The host pipeline's send + receive tax minus 2 × this is
  // the per-direction "avoided tax" the tracer records on bypassed spans.
  CycleBreakdown LocalDeliveryCost() const;
};

inline StageTerms CycleCostModel::Stage(CycleCategory stage, bool send, int64_t payload_bytes,
                                        int64_t wire_bytes, double byte_cost_scale) const {
  const double pb = static_cast<double>(payload_bytes) * byte_cost_scale;
  const double wb = static_cast<double>(wire_bytes) * byte_cost_scale;
  switch (stage) {
    case CycleCategory::kSerialization:
      return {.fixed = send ? serialize_fixed : parse_fixed,
              .per_byte = (send ? serialize_per_byte : parse_per_byte) * pb};
    case CycleCategory::kCompression:
      return {.fixed = send ? compress_fixed : decompress_fixed,
              .per_byte = (send ? compress_per_byte : decompress_per_byte) * pb};
    case CycleCategory::kEncryption:
      return {.fixed = encrypt_fixed, .per_byte = encrypt_per_byte * wb};
    case CycleCategory::kChecksum:
      return {.per_byte = checksum_per_byte * wb};
    case CycleCategory::kNetworking:
      return {.fixed = netstack_fixed,
              .per_packet = netstack_per_packet * std::ceil(wb / 1500.0),
              .per_byte = netstack_per_byte * wb};
    case CycleCategory::kRpcLibrary:
      return {.fixed = rpclib_fixed_per_side};
    case CycleCategory::kApplication:
      break;  // Application cycles are charged by the handler, not the stack.
  }
  return {};
}

}  // namespace rpcscope

#endif  // RPCSCOPE_SRC_RPC_COST_MODEL_H_
