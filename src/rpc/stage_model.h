// RPC-tax stage rules and hardware-offload profiles.
//
// The paper's headline result is the RPC "tax": the cycles every call burns
// in compression, serialization, encryption, checksumming, the network stack,
// and RPC library bookkeeping (Figs. 20/21). RPCAcc (arXiv 2411.07632) and
// NotNets (arXiv 2404.06581) ask what the fleet looks like when stages of
// that tax are offloaded to hardware or bypassed entirely. This module makes
// the question expressible: a TaxProfile holds one StageRule per tax
// category, saying how that stage's CycleCostModel terms are charged, and
// the ProfileCatalog lists the built-in profiles for the offline what-if to
// sweep (AnalyzeOffloadWhatIf: examples/offload_whatif, rpcscope_analyze
// --analysis=offload).
//
// There is one pricing path: every message side — DES client and server,
// FleetSampler, the colocated avoided-tax estimate, the offload what-if —
// goes through TaxProfile::MessageCost. The `baseline` profile (every stage
// on the host rule) *is* the calibrated host pipeline, and it is the only
// profile the DES runs; the others act only in the what-if. Rules are pure
// functions of their inputs (docs/TAX.md#determinism).
#ifndef RPCSCOPE_SRC_RPC_STAGE_MODEL_H_
#define RPCSCOPE_SRC_RPC_STAGE_MODEL_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/time.h"
#include "src/rpc/cost_model.h"

namespace rpcscope {

// One message direction through the tax pipeline.
struct StageCostInput {
  int64_t payload_bytes = 0;  // Serialized (pre-compression) size.
  int64_t wire_bytes = 0;     // On-wire (post-compression, framed) size.
  // Per-byte/per-packet discount for blob-style channels (see
  // CycleCostModel::Stage).
  double byte_cost_scale = 1.0;
  bool send = true;  // Send side (serialize/compress) vs receive side.
  // Caller and callee share a locality domain. Only the colocated-bypass
  // rule reads it, and only AnalyzeOffloadWhatIf sets it (from
  // Span::colocated): the DES serves colocated calls on its own fast path.
  bool colocated = false;
};

// Aggregate cost of one message under a profile.
struct ProfileCost {
  CycleBreakdown host;       // Per-category host cycles (tax categories only).
  double device_cycles = 0;  // Total cycles moved to the offload device.
};

// How a profile charges one tax stage, given the stage's CycleCostModel
// terms t (docs/TAX.md#stage-rules):
//   kHost             host t.Total() — the calibrated pipeline.
//   kScaled           host fixed_scale × t.fixed +
//                     size_scale × (t.per_packet + t.per_byte).
//   kDevice           host host_fixed_cycles + host_per_byte_cycles × wire
//                     bytes × byte_cost_scale (descriptor/DMA setup);
//                     device_cycle_scale × t.Total() runs on the offload
//                     device.
//   kColocatedBypass  colocated messages charge nothing; others t.Total().
struct StageRule {
  enum class Kind : uint8_t { kHost, kScaled, kDevice, kColocatedBypass };

  Kind kind = Kind::kHost;
  double fixed_scale = 1.0;           // kScaled.
  double size_scale = 1.0;            // kScaled.
  double host_fixed_cycles = 0;       // kDevice.
  double host_per_byte_cycles = 0;    // kDevice.
  double device_cycle_scale = 1.0;    // kDevice.

  // Prices `stage` of one message under this rule: sets cost.host[stage] and
  // adds the stage's device cycles to cost.device_cycles.
  void Charge(CycleCategory stage, const CycleCostModel& base, const StageCostInput& in,
              ProfileCost& cost) const;
};

// The offload device behind kDevice stages: its clock converts offloaded
// cycles to occupancy time, and every message that touches it pays a fixed
// transfer latency (PCIe DMA round trip). No device queue is modeled: the
// what-if adds DeviceTime to each sampled RPC's latency.
struct DeviceModel {
  double cycles_per_second = 5.0e9;
  SimDuration transfer_latency = Micros(1);
};

// A named set of stage rules, one per tax category. Immutable once in a
// catalog; a default-constructed profile prices like `baseline`.
struct TaxProfile {
  std::string name;
  std::string summary;  // One line, shown by rpcscope_analyze --list-profiles.
  std::string source;   // Literature anchor (docs/TAX.md#built-in-profiles).
  std::array<StageRule, kNumTaxCategories> stages{};
  DeviceModel device;

  // Prices one message direction: every tax stage in category order.
  ProfileCost MessageCost(const CycleCostModel& base, const StageCostInput& in) const;

  // Virtual time `device_cycles` of offloaded work occupies the device,
  // including the per-message transfer latency. 0 when no cycles offloaded.
  SimDuration DeviceTime(double device_cycles) const;
};

// The calibrated host pipeline: every stage on the host rule. It is
// BuiltinProfileCatalog().at(0), and prices every message the DES encodes,
// FleetSampler's samples and the colocated fast path's avoided-tax estimate.
const TaxProfile& BaselineProfile();

// Built-in profile names, in id order.
inline constexpr std::string_view kProfileBaseline = "baseline";
inline constexpr std::string_view kProfileRpcAcc = "rpcacc";
inline constexpr std::string_view kProfileKernelBypass = "kernel_bypass";
inline constexpr std::string_view kProfileNicCrypto = "nic_crypto";
inline constexpr std::string_view kProfileNotnetsColocated = "notnets_colocated";

// The built-in profiles, in a fixed order. A profile's id is its index, and
// the what-if reports one outcome per id in the same order. Id 0 is
// `baseline`.
class ProfileCatalog {
 public:
  int32_t IdOf(std::string_view name) const;  // -1 when absent.

  size_t size() const { return profiles_.size(); }
  const TaxProfile& at(size_t i) const { return profiles_[i]; }

 private:
  friend const ProfileCatalog& BuiltinProfileCatalog();
  explicit ProfileCatalog(std::vector<TaxProfile> profiles) : profiles_(std::move(profiles)) {}

  std::vector<TaxProfile> profiles_;
};

// The five built-in offload profiles (docs/TAX.md#built-in-profiles):
//   baseline           — host pipeline as calibrated; id 0.
//   rpcacc             — PCIe-attached RPC accelerator (arXiv 2411.07632):
//                        data-touching stages collapse to a descriptor/DMA
//                        transfer cost plus device time.
//   kernel_bypass      — DPDK-class userspace netstack: fixed and per-packet
//                        terms slashed, zero-copy per-byte cost.
//   nic_crypto         — inline NIC crypto/CRC engines: encryption and
//                        checksum per-byte cost ≈ 0, driver setup remains.
//   notnets_colocated  — network bypass for colocated callers
//                        (arXiv 2404.06581): colocated messages pay only RPC
//                        library bookkeeping.
// One immutable catalog per process, built on first use.
const ProfileCatalog& BuiltinProfileCatalog();

}  // namespace rpcscope

#endif  // RPCSCOPE_SRC_RPC_STAGE_MODEL_H_
