// Stage rules and tax profiles (docs/TAX.md): the baseline profile is the
// host pipeline — unit-level, and pinning it changes nothing through the
// full DES and mini-fleet digests — while the offload profiles reprice
// stages, move cycles onto devices, and survive policy hot-swap plus
// kill-and-resume.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "src/fleet/mini_fleet.h"
#include "src/rpc/client.h"
#include "src/rpc/server.h"
#include "src/rpc/stage_model.h"

namespace rpcscope {
namespace {

namespace fs = std::filesystem;

constexpr MethodId kEcho = 1;

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

TEST(StageModelTest, BaselineProfileIsTheHostPipelineBitForBit) {
  const CycleCostModel costs;
  const ProfileCatalog& catalog = BuiltinProfileCatalog();
  const TaxProfile* baseline = catalog.Find(kProfileBaseline);
  ASSERT_NE(baseline, nullptr);
  // Unset and unknown ids price under the same profile.
  EXPECT_EQ(&catalog.GetOrBaseline(-1), baseline);
  EXPECT_EQ(&catalog.GetOrBaseline(static_cast<int32_t>(catalog.size())), baseline);
  EXPECT_EQ(baseline->name, BaselineProfile().name);
  for (const SideCase& c : Cases()) {
    const ProfileCost pc = baseline->MessageCost(costs, InputOf(c));
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
  const ProfileCatalog& catalog = BuiltinProfileCatalog();
  const TaxProfile* baseline = catalog.Find(kProfileBaseline);
  const TaxProfile* rpcacc = catalog.Find(kProfileRpcAcc);
  ASSERT_NE(rpcacc, nullptr);
  const StageCostInput in{.payload_bytes = 65536, .wire_bytes = 40000, .send = true};
  const ProfileCost base = baseline->MessageCost(costs, in);
  const ProfileCost acc = rpcacc->MessageCost(costs, in);
  EXPECT_LT(acc.host.TaxTotal(), base.host.TaxTotal());
  EXPECT_GT(acc.device_cycles, 0.0);
  // Stages that stay on the host are untouched, bitwise.
  EXPECT_EQ(acc.host[CycleCategory::kNetworking], base.host[CycleCategory::kNetworking]);
  EXPECT_EQ(acc.host[CycleCategory::kRpcLibrary], base.host[CycleCategory::kRpcLibrary]);
  // Device work takes wall time: transfer plus device-clock execution.
  EXPECT_GT(rpcacc->DeviceTime(acc.device_cycles), rpcacc->device.transfer_latency);
  EXPECT_EQ(rpcacc->DeviceTime(0), 0);
}

TEST(StageModelTest, KernelBypassTouchesOnlyNetworking) {
  const CycleCostModel costs;
  const ProfileCatalog& catalog = BuiltinProfileCatalog();
  const TaxProfile* baseline = catalog.Find(kProfileBaseline);
  const TaxProfile* bypass = catalog.Find(kProfileKernelBypass);
  ASSERT_NE(bypass, nullptr);
  for (const SideCase& c : Cases()) {
    const ProfileCost base = baseline->MessageCost(costs, InputOf(c));
    const ProfileCost fast = bypass->MessageCost(costs, InputOf(c));
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
  const ProfileCatalog& catalog = BuiltinProfileCatalog();
  const TaxProfile* nic = catalog.Find(kProfileNicCrypto);
  ASSERT_NE(nic, nullptr);
  const ProfileCost small =
      nic->MessageCost(costs, StageCostInput{.payload_bytes = 64, .wire_bytes = 80, .send = true});
  const ProfileCost large = nic->MessageCost(
      costs, StageCostInput{.payload_bytes = 65536, .wire_bytes = 40000, .send = true});
  // Encryption keeps only its fixed per-message term; checksum becomes free.
  EXPECT_EQ(small.host[CycleCategory::kEncryption], large.host[CycleCategory::kEncryption]);
  EXPECT_EQ(small.host[CycleCategory::kChecksum], 0.0);
  EXPECT_EQ(large.host[CycleCategory::kChecksum], 0.0);
  // Data-independent stages unchanged vs baseline.
  const TaxProfile* baseline = catalog.Find(kProfileBaseline);
  const ProfileCost base = baseline->MessageCost(
      costs, StageCostInput{.payload_bytes = 65536, .wire_bytes = 40000, .send = true});
  EXPECT_EQ(large.host[CycleCategory::kSerialization], base.host[CycleCategory::kSerialization]);
  EXPECT_EQ(large.host[CycleCategory::kCompression], base.host[CycleCategory::kCompression]);
}

TEST(StageModelTest, NotnetsBypassesOnlyColocatedTraffic) {
  const CycleCostModel costs;
  const ProfileCatalog& catalog = BuiltinProfileCatalog();
  const TaxProfile* baseline = catalog.Find(kProfileBaseline);
  const TaxProfile* notnets = catalog.Find(kProfileNotnetsColocated);
  ASSERT_NE(notnets, nullptr);
  const SideCase c{1500, 900, true};
  // Remote traffic: identical to baseline, bitwise.
  const ProfileCost remote = notnets->MessageCost(costs, InputOf(c, /*colocated=*/false));
  const ProfileCost base = baseline->MessageCost(costs, InputOf(c, /*colocated=*/false));
  for (int i = 0; i < kNumTaxCategories; ++i) {
    const auto cat = static_cast<CycleCategory>(i);
    EXPECT_EQ(remote.host[cat], base.host[cat]) << CycleCategoryName(cat);
  }
  // Colocated traffic: every data/netstack stage vanishes, only the RPC
  // library hand-off remains.
  const ProfileCost local = notnets->MessageCost(costs, InputOf(c, /*colocated=*/true));
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
    const TaxProfile* p = catalog.Get(id);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->name, name);
    EXPECT_FALSE(p->summary.empty());
    EXPECT_FALSE(p->source.empty());
  }
  // Unknown ids and names resolve to "no profile", never to a crash.
  EXPECT_EQ(catalog.Get(-1), nullptr);
  EXPECT_EQ(catalog.Get(static_cast<int32_t>(catalog.size())), nullptr);
  EXPECT_EQ(catalog.Find("no_such_profile"), nullptr);
  EXPECT_EQ(catalog.IdOf("no_such_profile"), -1);
}

// --- DES end-to-end: profiles resolved through the policy plane.

class OffloadDesTest : public ::testing::Test {
 protected:
  static RpcSystemOptions MakeOptions(int32_t tax_profile) {
    RpcSystemOptions o;
    o.fabric.congestion_probability = 0;
    if (tax_profile >= 0) {
      o.policy.initial.defaults.tax_profile = tax_profile;
    }
    return o;
  }

  // Builds a one-client/one-server system and runs a single remote echo.
  static CallResult RunEcho(RpcSystem& system, int64_t payload_bytes) {
    const MachineId client_machine = system.topology().MachineAt(0, 0);
    const MachineId server_machine = system.topology().MachineAt(0, 1);
    Server server(&system, server_machine, ServerOptions{});
    server.RegisterMethod(kEcho, "Echo", [](std::shared_ptr<ServerCall> call) {
      call->Compute(Micros(100), [call]() {
        call->Finish(Status::Ok(), Payload::Modeled(512));
      });
    });
    Client client(&system, client_machine, ClientOptions{});
    CallResult got;
    client.Call(server_machine, kEcho, Payload::Modeled(payload_bytes), {},
                [&](const CallResult& result, Payload) { got = result; });
    system.sim().Run();
    return got;
  }
};

TEST_F(OffloadDesTest, BaselineProfileReproducesUnsetCallExactly) {
  RpcSystem unset(MakeOptions(-1));
  RpcSystem baseline(MakeOptions(BuiltinProfileCatalog().IdOf(kProfileBaseline)));
  const CallResult a = RunEcho(unset, 4096);
  const CallResult b = RunEcho(baseline, 4096);
  ASSERT_TRUE(a.status.ok());
  ASSERT_TRUE(b.status.ok());
  for (int i = 0; i < kNumRpcComponents; ++i) {
    EXPECT_EQ(a.latency.components[static_cast<size_t>(i)],
              b.latency.components[static_cast<size_t>(i)])
        << RpcComponentName(static_cast<RpcComponent>(i));
  }
  for (int i = 0; i < kNumCycleCategories; ++i) {
    EXPECT_EQ(a.cycles.cycles[static_cast<size_t>(i)], b.cycles.cycles[static_cast<size_t>(i)]);
  }
}

TEST_F(OffloadDesTest, RpcAccProfileChargesDeviceCyclesEndToEnd) {
  const int32_t rpcacc = BuiltinProfileCatalog().IdOf(kProfileRpcAcc);
  ASSERT_GE(rpcacc, 0);
  RpcSystem system(MakeOptions(rpcacc));
  const MachineId client_machine = system.topology().MachineAt(0, 0);
  const MachineId server_machine = system.topology().MachineAt(0, 1);
  Server server(&system, server_machine, ServerOptions{});
  // Same handler shape as RunEcho so the unset reference below differs only
  // in the resolved profile.
  server.RegisterMethod(kEcho, "Echo", [](std::shared_ptr<ServerCall> call) {
    call->Compute(Micros(100), [call]() {
      call->Finish(Status::Ok(), Payload::Modeled(512));
    });
  });
  Client client(&system, client_machine, ClientOptions{});
  CallResult got;
  client.Call(server_machine, kEcho, Payload::Modeled(8192), {},
              [&](const CallResult& result, Payload) { got = result; });
  system.sim().Run();
  ASSERT_TRUE(got.status.ok()) << got.status.ToString();

  // Device cycles accrued on both endpoints, attributed to the whole call on
  // the client, and mirrored in the streaming counters per profile.
  EXPECT_GT(client.device_cycles(), 0.0);
  EXPECT_GT(server.device_cycles(), 0.0);
  EXPECT_GT(system.metrics().GetCounter("client.device_cycles").value(), 0.0);
  EXPECT_GT(system.metrics().GetCounter("server.device_cycles").value(), 0.0);
  EXPECT_GT(system.metrics().GetCounter("tax.profile.rpcacc.tax_cycles").value(), 0.0);
  EXPECT_GT(system.metrics().GetCounter("tax.profile.rpcacc.device_cycles").value(), 0.0);

  // The offloaded call pays less host tax than the same call with no profile
  // named.
  RpcSystem unset(MakeOptions(-1));
  const CallResult ref = RunEcho(unset, 8192);
  ASSERT_TRUE(ref.status.ok());
  EXPECT_LT(got.cycles.TaxTotal(), ref.cycles.TaxTotal());
}

TEST_F(OffloadDesTest, UnknownProfileIdPricesLikeUnset) {
  RpcSystem bogus(MakeOptions(9999));
  RpcSystem unset(MakeOptions(-1));
  const CallResult a = RunEcho(bogus, 4096);
  const CallResult b = RunEcho(unset, 4096);
  ASSERT_TRUE(a.status.ok());
  ASSERT_TRUE(b.status.ok());
  EXPECT_EQ(a.cycles.TaxTotal(), b.cycles.TaxTotal());
  EXPECT_EQ(a.latency.Total(), b.latency.Total());
}

// --- Mini-fleet digests: the baseline profile is invisible; an offload
// rollout hot-swaps deterministically and survives kill-and-resume.

MiniFleetOptions SmallFleet(uint64_t seed, int workers) {
  MiniFleetOptions options;
  options.duration = Millis(600);
  options.warmup = Millis(100);
  options.frontend_rps = 300;
  options.seed = seed;
  options.num_shards = 4;
  options.worker_threads = workers;
  return options;
}

TEST(OffloadFleetTest, BaselineProfileKeepsFleetDigestsBitForBit) {
  const ServiceCatalog catalog = ServiceCatalog::BuildDefault();
  const int32_t baseline_id = BuiltinProfileCatalog().IdOf(kProfileBaseline);
  for (const uint64_t seed : {0xf1ee7ull, 0x5eedull, 0xca11ull}) {
    for (const int workers : {1, 2, 8}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) + " workers=" + std::to_string(workers));
      const MiniFleetResult unset = RunMiniFleet(catalog, SmallFleet(seed, workers));
      MiniFleetOptions with_baseline = SmallFleet(seed, workers);
      with_baseline.policy.initial.defaults.tax_profile = baseline_id;
      const MiniFleetResult pinned = RunMiniFleet(catalog, with_baseline);
      EXPECT_EQ(unset.event_digest, pinned.event_digest);
      EXPECT_EQ(unset.events_executed, pinned.events_executed);
      EXPECT_EQ(unset.streamed_aggregate_digest, pinned.streamed_aggregate_digest);
      EXPECT_EQ(unset.replayed_aggregate_digest, pinned.replayed_aggregate_digest);
      EXPECT_EQ(unset.exemplar_digest, pinned.exemplar_digest);
      EXPECT_EQ(unset.spans.size(), pinned.spans.size());
    }
  }
}

TEST(OffloadFleetTest, ProfileHotSwapIsWorkerCountInvariantAndNotANoop) {
  const ServiceCatalog catalog = ServiceCatalog::BuildDefault();
  const ProfileCatalog& profiles = BuiltinProfileCatalog();
  const MiniFleetResult unset = RunMiniFleet(catalog, SmallFleet(0xf1ee7, 2));
  for (size_t id = 0; id < profiles.size(); ++id) {
    const std::string& name = profiles.at(id).name;
    if (name == kProfileBaseline) {
      continue;  // Pinning baseline is covered above.
    }
    SCOPED_TRACE("profile=" + name);
    PolicySnapshot stage;
    stage.defaults.tax_profile = static_cast<int32_t>(id);
    auto with_swap = [&](int workers) {
      MiniFleetOptions options = SmallFleet(0xf1ee7, workers);
      options.policy.AddStage(Millis(300), stage);
      return RunMiniFleet(catalog, options);
    };
    const MiniFleetResult one = with_swap(1);
    const MiniFleetResult eight = with_swap(8);
    EXPECT_EQ(one.policy_stages_applied, 1u);
    EXPECT_EQ(one.event_digest, eight.event_digest);
    EXPECT_EQ(one.events_executed, eight.events_executed);
    EXPECT_EQ(one.streamed_aggregate_digest, eight.streamed_aggregate_digest);
    if (name == kProfileNotnetsColocated) {
      // The DES never prices a message as colocated — colocated calls take
      // the fast path before any profile is consulted — so this profile
      // prices like baseline there and the swap changes nothing.
      EXPECT_EQ(unset.event_digest, one.event_digest);
      EXPECT_EQ(unset.events_executed, one.events_executed);
      EXPECT_EQ(unset.streamed_aggregate_digest, one.streamed_aggregate_digest);
      EXPECT_EQ(unset.exemplar_digest, one.exemplar_digest);
    } else {
      // The swap reprices the pipeline: the fleet diverges from the default.
      EXPECT_NE(unset.event_digest, one.event_digest);
    }
  }
}

TEST(OffloadFleetTest, ProfileSwapSurvivesKillAndResume) {
  const ServiceCatalog catalog = ServiceCatalog::BuildDefault();
  const int32_t rpcacc = BuiltinProfileCatalog().IdOf(kProfileRpcAcc);
  PolicySnapshot stage;
  stage.defaults.tax_profile = rpcacc;
  MiniFleetOptions options = SmallFleet(0x0ff10ad, 2);
  // The swap lands after the kill point: the policy cursor must cross the
  // checkpoint unapplied and fire on the resumed run's barrier.
  options.policy.AddStage(Millis(450), stage);
  const SimDuration every = Millis(200);

  const std::string dir = ::testing::TempDir() + "/offload_resume";
  fs::remove_all(dir);

  const auto reference =
      RunMiniFleetCheckpointed(catalog, options, {.dir = {}, .every = every});
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_EQ(reference->policy_stages_applied, 1u);

  const auto killed = RunMiniFleetCheckpointed(
      catalog, options, {.dir = dir, .every = every, .stop_after_epochs = 1});
  ASSERT_TRUE(killed.ok()) << killed.status().ToString();
  EXPECT_TRUE(killed->interrupted);

  const auto resumed = RunMiniFleetCheckpointed(catalog, options,
                                                {.dir = dir, .every = every, .resume = true});
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(resumed->resumed);
  EXPECT_EQ(resumed->policy_stages_applied, 1u);
  EXPECT_EQ(resumed->policy_version, 1u);
  EXPECT_EQ(resumed->event_digest, reference->event_digest);
  EXPECT_EQ(resumed->events_executed, reference->events_executed);
  EXPECT_EQ(resumed->streamed_aggregate_digest, reference->streamed_aggregate_digest);
  EXPECT_EQ(resumed->replayed_aggregate_digest, reference->replayed_aggregate_digest);
}

}  // namespace
}  // namespace rpcscope
