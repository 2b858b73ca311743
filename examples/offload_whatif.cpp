// Offload what-if: sweep the built-in hardware-offload stage-cost profiles
// (docs/TAX.md#built-in-profiles) across the full method catalog and report
// fleet-wide p50/p99 completion time and per-category cycle-tax deltas
// versus the baseline profile.
//
//   ./offload_whatif [samples-per-method]
//
// Exits non-zero unless the accelerator profiles (rpcacc, kernel_bypass)
// reduce both fleet p99 latency and host tax cycles relative to baseline —
// the direction-only property the CI smoke job asserts.
#include <cstdio>
#include <cstdlib>

#include "src/core/analyses.h"
#include "src/fleet/fleet_sampler.h"
#include "src/net/topology.h"
#include "src/rpc/stage_model.h"

using namespace rpcscope;

int main(int argc, char** argv) {
  int per_method = 100;
  if (argc > 1) {
    per_method = std::atoi(argv[1]);
    if (per_method <= 0) {
      std::fprintf(stderr, "usage: %s [samples-per-method]\n", argv[0]);
      return 2;
    }
  }

  const ServiceCatalog services = ServiceCatalog::BuildDefault();
  const MethodCatalog methods = MethodCatalog::Generate(services, {});
  const Topology topology{TopologyOptions{}};
  const CycleCostModel costs;
  FleetSampler sampler(&services, &methods, &topology, &costs, FleetSamplerOptions{});

  // Stratified over the *full* catalog: every method contributes equally, so
  // a profile cannot look good by only helping the popular methods.
  std::vector<SampledRpc> rpcs;
  rpcs.reserve(static_cast<size_t>(methods.size()) * static_cast<size_t>(per_method));
  for (int32_t m = 0; m < methods.size(); ++m) {
    for (int i = 0; i < per_method; ++i) {
      rpcs.push_back(sampler.SampleMethod(m));
    }
  }
  std::printf("%zu sampled RPCs across %d methods\n\n", rpcs.size(), methods.size());

  const ProfileCatalog& profiles = BuiltinProfileCatalog();
  const OffloadWhatIf result = AnalyzeOffloadWhatIf(rpcs, costs, profiles);
  std::fputs(result.report.Render().c_str(), stdout);

  std::printf("reading: rpcacc moves serialization/compression/crypto cycles to a PCIe\n"
              "device (host tax collapses, a device column appears); kernel_bypass only\n"
              "touches the networking category; nic_crypto zeroes the per-byte share of\n"
              "encryption+checksum; notnets_colocated (NotNets, arXiv 2404.06581) changes\n"
              "nothing here: it acts only on spans marked colocated, and FleetSampler marks\n"
              "none. Profiles act only in this what-if: the DES runs no profile, so every\n"
              "DES call is priced under baseline.\n");

  // Direction-only assertions for CI: the offload profiles must beat the
  // baseline on both the p99 tail and host tax cycles.
  const OffloadProfileOutcome& base = result.profiles.at(0);
  bool ok = true;
  for (const std::string_view name : {kProfileRpcAcc, kProfileKernelBypass}) {
    const std::string label(name);
    const int32_t id = profiles.IdOf(label);
    if (id < 0) {
      std::fprintf(stderr, "FAIL: profile %s missing from catalog\n", label.c_str());
      ok = false;
      continue;
    }
    const OffloadProfileOutcome& p = result.profiles.at(static_cast<size_t>(id));
    if (!(p.p99_ms < base.p99_ms)) {
      std::fprintf(stderr, "FAIL: %s p99 %.3fms not below baseline %.3fms\n", label.c_str(),
                   p.p99_ms, base.p99_ms);
      ok = false;
    }
    if (!(p.host_tax_cycles < base.host_tax_cycles)) {
      std::fprintf(stderr, "FAIL: %s host tax %.3g not below baseline %.3g\n", label.c_str(),
                   p.host_tax_cycles, base.host_tax_cycles);
      ok = false;
    }
  }
  if (ok) {
    std::printf("\nPASS: rpcacc and kernel_bypass reduce fleet p99 and host tax cycles\n");
  }
  return ok ? 0 : 1;
}
