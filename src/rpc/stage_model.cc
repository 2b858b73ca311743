#include "src/rpc/stage_model.h"

namespace rpcscope {

namespace {

// A profile with every stage on the host rule; callers then reassign the
// stages they reprice.
TaxProfile HostProfile(std::string_view name, std::string summary, std::string source) {
  TaxProfile profile;
  profile.name = std::string(name);
  profile.summary = std::move(summary);
  profile.source = std::move(source);
  return profile;
}

// The built-in profiles, in id order (see BuiltinProfileCatalog()).
std::vector<TaxProfile> BuiltinProfiles() {
  std::vector<TaxProfile> profiles;
  profiles.reserve(5);

  // id 0: the calibrated host pipeline.
  profiles.push_back(HostProfile(kProfileBaseline, "host pipeline as calibrated (docs/TAX.md)",
                                 "SOSP'23 Figs. 20/21 calibration"));

  // id 1: PCIe-attached RPC accelerator. The data-touching stages
  // (serialization, compression, encryption, checksum) collapse to a
  // descriptor/DMA cost on the host; their cycles run on a 5 GHz device
  // engine. Netstack and RPC-library bookkeeping stay on the host.
  TaxProfile& rpcacc = profiles.emplace_back(HostProfile(
      kProfileRpcAcc,
      "PCIe RPC accelerator: data-touching stages -> transfer cost + device time",
      "RPCAcc, arXiv 2411.07632"));
  for (const CycleCategory stage : {CycleCategory::kSerialization, CycleCategory::kCompression,
                                    CycleCategory::kEncryption, CycleCategory::kChecksum}) {
    rpcacc.stages[static_cast<size_t>(stage)] = {.kind = StageRule::Kind::kDevice,
                                                 .host_fixed_cycles = 120,
                                                 .host_per_byte_cycles = 0.02,
                                                 .device_cycle_scale = 1.0};
  }

  // id 2: DPDK-class userspace netstack. Syscall/interrupt fixed cost and
  // per-packet processing slashed, zero-copy trims the per-byte term; every
  // other stage unchanged.
  TaxProfile& bypass = profiles.emplace_back(HostProfile(
      kProfileKernelBypass,
      "userspace netstack: fixed/per-packet terms slashed, zero-copy per-byte",
      "kernel-bypass stacks (eRPC/DPDK lineage)"));
  bypass.stages[static_cast<size_t>(CycleCategory::kNetworking)] = {
      .kind = StageRule::Kind::kScaled, .fixed_scale = 0.08, .size_scale = 0.3};

  // id 3: inline NIC crypto + CRC engines. Per-byte encryption and checksum
  // cost goes to ~0 as bytes are processed on the wire path; the fixed
  // driver/setup cost of encryption remains.
  TaxProfile& nic = profiles.emplace_back(
      HostProfile(kProfileNicCrypto, "inline NIC crypto/CRC: encryption+checksum per-byte ~ 0",
                  "on-NIC AES/CRC engines (IPsec/PSP-class offload)"));
  for (const CycleCategory stage : {CycleCategory::kEncryption, CycleCategory::kChecksum}) {
    nic.stages[static_cast<size_t>(stage)] = {
        .kind = StageRule::Kind::kScaled, .fixed_scale = 1.0, .size_scale = 0.0};
  }

  // id 4: NotNets-style network bypass for colocated caller/callee pairs:
  // colocated messages keep only RPC-library bookkeeping (the same shape as
  // the colocated fast path's LocalDeliveryCost); remote messages pay the
  // full host pipeline.
  TaxProfile& notnets = profiles.emplace_back(
      HostProfile(kProfileNotnetsColocated,
                  "network bypass for colocated pairs: only RPC-library cycles remain",
                  "NotNets, arXiv 2404.06581"));
  for (int i = 0; i < kNumTaxCategories; ++i) {
    if (static_cast<CycleCategory>(i) != CycleCategory::kRpcLibrary) {
      notnets.stages[static_cast<size_t>(i)] = {.kind = StageRule::Kind::kColocatedBypass};
    }
  }

  return profiles;
}

}  // namespace

void StageRule::Charge(CycleCategory stage, const CycleCostModel& base, const StageCostInput& in,
                       ProfileCost& cost) const {
  const StageTerms t =
      base.Stage(stage, in.send, in.payload_bytes, in.wire_bytes, in.byte_cost_scale);
  const double total = t.Total();
  double host = total;
  switch (kind) {
    case Kind::kHost:
      break;
    case Kind::kScaled:
      host = fixed_scale * t.fixed + size_scale * (t.per_packet + t.per_byte);
      break;
    case Kind::kDevice:
      // Host side: post a descriptor and DMA the message; the stage's real
      // work becomes device occupancy, scaled by the engine's efficiency.
      host = host_fixed_cycles +
             host_per_byte_cycles * (static_cast<double>(in.wire_bytes) * in.byte_cost_scale);
      cost.device_cycles += device_cycle_scale * total;
      break;
    case Kind::kColocatedBypass:
      host = in.colocated ? 0 : total;
      break;
  }
  cost.host[stage] = host;
}

ProfileCost TaxProfile::MessageCost(const CycleCostModel& base, const StageCostInput& in) const {
  ProfileCost cost;
  // Unrolled, each stage's CycleCostModel::Stage switch folds away and the
  // host pipeline costs about what a hand-written six-stage sum does.
#pragma GCC unroll 6
  for (int i = 0; i < kNumTaxCategories; ++i) {
    stages[static_cast<size_t>(i)].Charge(static_cast<CycleCategory>(i), base, in, cost);
  }
  return cost;
}

SimDuration TaxProfile::DeviceTime(double device_cycles) const {
  if (device_cycles <= 0) {
    return 0;
  }
  return AddClamped(device.transfer_latency,
                    DurationFromSeconds(device_cycles / device.cycles_per_second));
}

const TaxProfile& BaselineProfile() { return BuiltinProfileCatalog().at(0); }

int32_t ProfileCatalog::IdOf(std::string_view name) const {
  for (size_t i = 0; i < profiles_.size(); ++i) {
    if (profiles_[i].name == name) {
      return static_cast<int32_t>(i);
    }
  }
  return -1;
}

const ProfileCatalog& BuiltinProfileCatalog() {
  static const ProfileCatalog catalog(BuiltinProfiles());
  return catalog;
}

}  // namespace rpcscope
