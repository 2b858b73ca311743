// Offload what-if: the hardware-acceleration counterpart of Fig. 15.
//
// Fig. 20/21 show where the fleet's tax cycles go; the offload literature
// (RPCAcc, kernel-bypass transports, NIC crypto engines, NotNets) asks what
// happens if individual stages stop running on host CPUs. This analysis
// replays a fleet sample under every stage-cost profile in a ProfileCatalog
// and reports the fleet-wide completion-time quantiles and the per-category
// cycle tax next to the baseline profile. docs/TAX.md documents the method
// and how to read the output.
#include <algorithm>
#include <array>
#include <cmath>

#include "src/common/stats.h"
#include "src/core/analyses.h"

namespace rpcscope {

OffloadWhatIf AnalyzeOffloadWhatIf(const std::vector<SampledRpc>& rpcs,
                                   const CycleCostModel& costs,
                                   const ProfileCatalog& profiles) {
  OffloadWhatIf out;
  out.report.id = "offload";
  out.report.title = "Offload what-if: fleet latency and cycle tax per stage-cost profile";

  // Baseline host cycles per RPC and direction (request, response): the
  // pipeline the sampled proc+stack components were priced on. Id 0 is
  // `baseline`, so its pass fills these and every later profile reads them.
  std::vector<std::array<double, 2>> base_host(rpcs.size());
  for (size_t id = 0; id < profiles.size(); ++id) {
    const TaxProfile& profile = profiles.at(id);
    OffloadProfileOutcome outcome;
    outcome.name = profile.name;

    std::vector<double> totals_ms;
    totals_ms.reserve(rpcs.size());
    for (size_t r = 0; r < rpcs.size(); ++r) {
      const Span& s = rpcs[r].span;
      if (s.status != StatusCode::kOk) {
        continue;
      }
      // The four stage-pipeline traversals of a unary call: client-send and
      // server-recv of the request, server-send and client-recv of the
      // response. Each is repriced under the profile.
      const StageCostInput sides[4] = {
          {.payload_bytes = s.request_payload_bytes, .wire_bytes = s.request_wire_bytes,
           .send = true, .colocated = s.colocated},
          {.payload_bytes = s.request_payload_bytes, .wire_bytes = s.request_wire_bytes,
           .send = false, .colocated = s.colocated},
          {.payload_bytes = s.response_payload_bytes, .wire_bytes = s.response_wire_bytes,
           .send = true, .colocated = s.colocated},
          {.payload_bytes = s.response_payload_bytes, .wire_bytes = s.response_wire_bytes,
           .send = false, .colocated = s.colocated},
      };
      double dir_host[2] = {0, 0};    // Profile host cycles: request, response.
      double dir_device[2] = {0, 0};  // Device cycles: request, response.
      for (int side = 0; side < 4; ++side) {
        const ProfileCost pc = profile.MessageCost(costs, sides[side]);
        dir_host[side / 2] += pc.host.TaxTotal();
        dir_device[side / 2] += pc.device_cycles;
        for (int i = 0; i < kNumTaxCategories; ++i) {
          const auto stage = static_cast<size_t>(i);
          outcome.category_cycles[stage] += pc.host.cycles[stage];
        }
        outcome.host_tax_cycles += pc.host.TaxTotal();
        outcome.device_cycles += pc.device_cycles;
      }
      if (id == 0) {
        base_host[r] = {dir_host[0], dir_host[1]};
      }
      const std::array<double, 2>& base = base_host[r];
      // Span transform (Fig. 15 method): queueing and wire stay as sampled;
      // the proc+stack components shrink (or grow) with the host-cycle ratio
      // of their direction, plus device transfer+execution when offloaded.
      const double req_ps = static_cast<double>(s.latency[RpcComponent::kRequestProcStack]);
      const double rsp_ps = static_cast<double>(s.latency[RpcComponent::kResponseProcStack]);
      const double req_ratio = base[0] > 0 ? dir_host[0] / base[0] : 1.0;
      const double rsp_ratio = base[1] > 0 ? dir_host[1] / base[1] : 1.0;
      const double new_req_ps =
          req_ps * req_ratio + static_cast<double>(profile.DeviceTime(dir_device[0]));
      const double new_rsp_ps =
          rsp_ps * rsp_ratio + static_cast<double>(profile.DeviceTime(dir_device[1]));
      const double total = static_cast<double>(s.latency.Total()) - req_ps - rsp_ps +
                           new_req_ps + new_rsp_ps;
      totals_ms.push_back(total / 1.0e6);  // SimDuration is ns.
    }
    std::sort(totals_ms.begin(), totals_ms.end());
    outcome.p50_ms = SortedQuantile(totals_ms, 0.5);
    outcome.p99_ms = SortedQuantile(totals_ms, 0.99);
    out.profiles.push_back(std::move(outcome));
  }

  const OffloadProfileOutcome& base = out.profiles.front();

  TextTable latency({"profile", "p50 RCT", "p99 RCT", "d p99", "host tax Gcyc", "d tax",
                     "device Gcyc"});
  for (const OffloadProfileOutcome& p : out.profiles) {
    const double dp99 = base.p99_ms > 0 ? p.p99_ms / base.p99_ms - 1.0 : 0.0;
    const double dtax =
        base.host_tax_cycles > 0 ? p.host_tax_cycles / base.host_tax_cycles - 1.0 : 0.0;
    latency.AddRow({p.name, FormatDouble(p.p50_ms, 3) + "ms", FormatDouble(p.p99_ms, 3) + "ms",
                    FormatPercent(dp99), FormatDouble(p.host_tax_cycles / 1.0e9, 2),
                    FormatPercent(dtax), FormatDouble(p.device_cycles / 1.0e9, 2)});
  }
  out.report.tables.push_back(latency);

  // Per-category host-cycle deltas vs baseline (Fig. 20's split, repriced).
  std::vector<std::string> header = {"profile"};
  for (int i = 0; i < kNumTaxCategories; ++i) {
    header.emplace_back(CycleCategoryName(static_cast<CycleCategory>(i)));
  }
  TextTable categories(header);
  for (const OffloadProfileOutcome& p : out.profiles) {
    std::vector<std::string> row = {p.name};
    for (int i = 0; i < kNumTaxCategories; ++i) {
      const auto stage = static_cast<size_t>(i);
      if (&p == &base) {
        row.push_back(FormatDouble(p.category_cycles[stage] / 1.0e9, 2) + "G");
      } else {
        const double b = base.category_cycles[stage];
        row.push_back(b > 0 ? FormatPercent(p.category_cycles[stage] / b - 1.0)
                            : FormatDouble(p.category_cycles[stage] / 1.0e9, 2) + "G");
      }
    }
    categories.AddRow(row);
  }
  out.report.tables.push_back(categories);

  out.report.notes.push_back(
      "Baseline row: absolute host cycles per category; other rows: delta vs baseline. "
      "Queueing and wire components are held fixed; only proc+stack latency and stage "
      "cycles are repriced (docs/TAX.md#reading-offload_whatif-output).");
  return out;
}

}  // namespace rpcscope
