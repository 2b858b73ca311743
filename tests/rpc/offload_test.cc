// Stage rules and tax profiles (docs/TAX.md), unit-level: the baseline
// profile is the host pipeline bit for bit, each rule charges only its own
// stage, the offload profiles reprice the stages they name (moving cycles
// onto a device where they offload), and the catalog's ids and names are
// stable. The DES runs only `baseline`; EndToEndTest.CyclesAccountedOnBothSides
// pins that pricing through a real call.
#include <gtest/gtest.h>

#include <string_view>
#include <vector>

#include "src/rpc/stage_model.h"

namespace rpcscope {
namespace {

struct SideCase {
  int64_t payload;
  int64_t wire;
  bool send;
};

const std::vector<SideCase>& Cases() {
  static const std::vector<SideCase> cases = {
      {0, 0, true},       {0, 0, false},      {64, 80, true},      {64, 80, false},
      {1500, 900, true},  {1500, 900, false}, {65536, 40000, true}, {65536, 40000, false},
  };
  return cases;
}

StageCostInput InputOf(const SideCase& c, bool colocated = false) {
  return StageCostInput{
      .payload_bytes = c.payload, .wire_bytes = c.wire, .send = c.send, .colocated = colocated};
}

// A built-in profile by name, through the catalog's id.
const TaxProfile& Profile(std::string_view name) {
  const ProfileCatalog& catalog = BuiltinProfileCatalog();
  const int32_t id = catalog.IdOf(name);
  EXPECT_GE(id, 0) << name;
  return catalog.at(static_cast<size_t>(id < 0 ? 0 : id));
}

TEST(StageModelTest, BaselineProfileIsTheHostPipelineBitForBit) {
  const CycleCostModel costs;
  const TaxProfile& baseline = Profile(kProfileBaseline);
  EXPECT_EQ(baseline.name, BaselineProfile().name);
  for (const SideCase& c : Cases()) {
    const ProfileCost pc = baseline.MessageCost(costs, InputOf(c));
    const ProfileCost outside = BaselineProfile().MessageCost(costs, InputOf(c));
    for (int i = 0; i < kNumTaxCategories; ++i) {
      const auto cat = static_cast<CycleCategory>(i);
      // Exact double equality: every stage charges its calibrated Total().
      EXPECT_EQ(pc.host[cat], costs.Stage(cat, c.send, c.payload, c.wire).Total())
          << "stage " << CycleCategoryName(cat) << " payload " << c.payload << " send "
          << c.send;
      EXPECT_EQ(outside.host[cat], pc.host[cat]);
    }
    EXPECT_EQ(pc.device_cycles, 0.0);
  }
}

TEST(StageModelTest, ProfileTaxTotalEqualsSumOfChargedStageCycles) {
  const CycleCostModel costs;
  const ProfileCatalog& catalog = BuiltinProfileCatalog();
  for (size_t id = 0; id < catalog.size(); ++id) {
    const TaxProfile& profile = catalog.at(id);
    for (const SideCase& c : Cases()) {
      for (const bool colocated : {false, true}) {
        const StageCostInput in = InputOf(c, colocated);
        const ProfileCost pc = profile.MessageCost(costs, in);
        double host_sum = 0;
        double device_sum = 0;
        for (int i = 0; i < kNumTaxCategories; ++i) {
          const auto cat = static_cast<CycleCategory>(i);
          // Each rule charges its own stage only.
          ProfileCost alone;
          profile.stages[static_cast<size_t>(i)].Charge(cat, costs, in, alone);
          EXPECT_EQ(alone.host.TaxTotal(), alone.host[cat]) << profile.name;
          EXPECT_EQ(pc.host[cat], alone.host[cat]) << profile.name;
          host_sum += alone.host[cat];
          device_sum += alone.device_cycles;
        }
        EXPECT_DOUBLE_EQ(pc.host.TaxTotal(), host_sum) << profile.name;
        EXPECT_DOUBLE_EQ(pc.device_cycles, device_sum) << profile.name;
        EXPECT_EQ(pc.host[CycleCategory::kApplication], 0.0) << profile.name;
      }
    }
  }
}

TEST(StageModelTest, RpcAccMovesDataTouchingCyclesToDevice) {
  const CycleCostModel costs;
  const TaxProfile& rpcacc = Profile(kProfileRpcAcc);
  const StageCostInput in{.payload_bytes = 65536, .wire_bytes = 40000, .send = true};
  const ProfileCost base = BaselineProfile().MessageCost(costs, in);
  const ProfileCost acc = rpcacc.MessageCost(costs, in);
  EXPECT_LT(acc.host.TaxTotal(), base.host.TaxTotal());
  EXPECT_GT(acc.device_cycles, 0.0);
  // Stages that stay on the host are untouched, bitwise.
  EXPECT_EQ(acc.host[CycleCategory::kNetworking], base.host[CycleCategory::kNetworking]);
  EXPECT_EQ(acc.host[CycleCategory::kRpcLibrary], base.host[CycleCategory::kRpcLibrary]);
  // Device work takes wall time: transfer plus device-clock execution.
  EXPECT_GT(rpcacc.DeviceTime(acc.device_cycles), rpcacc.device.transfer_latency);
  EXPECT_EQ(rpcacc.DeviceTime(0), 0);
}

TEST(StageModelTest, KernelBypassTouchesOnlyNetworking) {
  const CycleCostModel costs;
  const TaxProfile& bypass = Profile(kProfileKernelBypass);
  for (const SideCase& c : Cases()) {
    const ProfileCost base = BaselineProfile().MessageCost(costs, InputOf(c));
    const ProfileCost fast = bypass.MessageCost(costs, InputOf(c));
    for (int i = 0; i < kNumTaxCategories; ++i) {
      const auto cat = static_cast<CycleCategory>(i);
      if (cat == CycleCategory::kNetworking) {
        if (base.host[cat] > 0) {
          EXPECT_LT(fast.host[cat], base.host[cat]);
        }
      } else {
        EXPECT_EQ(fast.host[cat], base.host[cat]) << CycleCategoryName(cat);
      }
    }
    EXPECT_EQ(fast.device_cycles, 0.0);
  }
}

TEST(StageModelTest, NicCryptoZeroesPerByteCryptoCost) {
  const CycleCostModel costs;
  const TaxProfile& nic = Profile(kProfileNicCrypto);
  const ProfileCost small =
      nic.MessageCost(costs, StageCostInput{.payload_bytes = 64, .wire_bytes = 80, .send = true});
  const ProfileCost large = nic.MessageCost(
      costs, StageCostInput{.payload_bytes = 65536, .wire_bytes = 40000, .send = true});
  // Encryption keeps only its fixed per-message term; checksum becomes free.
  EXPECT_EQ(small.host[CycleCategory::kEncryption], large.host[CycleCategory::kEncryption]);
  EXPECT_EQ(small.host[CycleCategory::kChecksum], 0.0);
  EXPECT_EQ(large.host[CycleCategory::kChecksum], 0.0);
  // Data-independent stages unchanged vs baseline.
  const ProfileCost base = BaselineProfile().MessageCost(
      costs, StageCostInput{.payload_bytes = 65536, .wire_bytes = 40000, .send = true});
  EXPECT_EQ(large.host[CycleCategory::kSerialization], base.host[CycleCategory::kSerialization]);
  EXPECT_EQ(large.host[CycleCategory::kCompression], base.host[CycleCategory::kCompression]);
}

TEST(StageModelTest, NotnetsBypassesOnlyColocatedTraffic) {
  const CycleCostModel costs;
  const TaxProfile& notnets = Profile(kProfileNotnetsColocated);
  const SideCase c{1500, 900, true};
  // Remote traffic: identical to baseline, bitwise.
  const ProfileCost remote = notnets.MessageCost(costs, InputOf(c, /*colocated=*/false));
  const ProfileCost base = BaselineProfile().MessageCost(costs, InputOf(c, /*colocated=*/false));
  for (int i = 0; i < kNumTaxCategories; ++i) {
    const auto cat = static_cast<CycleCategory>(i);
    EXPECT_EQ(remote.host[cat], base.host[cat]) << CycleCategoryName(cat);
  }
  // Colocated traffic: every data/netstack stage vanishes, only the RPC
  // library hand-off remains.
  const ProfileCost local = notnets.MessageCost(costs, InputOf(c, /*colocated=*/true));
  for (int i = 0; i < kNumTaxCategories; ++i) {
    const auto cat = static_cast<CycleCategory>(i);
    if (cat == CycleCategory::kRpcLibrary) {
      EXPECT_EQ(local.host[cat], base.host[cat]);
    } else {
      EXPECT_EQ(local.host[cat], 0.0) << CycleCategoryName(cat);
    }
  }
}

TEST(StageModelTest, CatalogLookupsAndNames) {
  const ProfileCatalog& catalog = BuiltinProfileCatalog();
  ASSERT_GE(catalog.size(), 5u);
  EXPECT_EQ(catalog.IdOf(kProfileBaseline), 0);
  for (const std::string_view name :
       {kProfileBaseline, kProfileRpcAcc, kProfileKernelBypass, kProfileNicCrypto,
        kProfileNotnetsColocated}) {
    const int32_t id = catalog.IdOf(name);
    ASSERT_GE(id, 0) << name;
    const TaxProfile& p = catalog.at(static_cast<size_t>(id));
    EXPECT_EQ(p.name, name);
    EXPECT_FALSE(p.summary.empty());
    EXPECT_FALSE(p.source.empty());
  }
  // An unknown name resolves to "no profile", never to a crash.
  EXPECT_EQ(catalog.IdOf("no_such_profile"), -1);
}

}  // namespace
}  // namespace rpcscope
