// Ablation: compression offload (§5.3, "Optimizing common operations").
//
// Compression is the single largest RPC cycle-tax component (3.1% of ALL
// fleet cycles, Fig. 20b), which is why the paper points accelerators at it
// rather than at the RPC library (1.1%). This ablation recomputes the fleet
// cycle tax under three hardware scenarios: baseline software stack,
// compression fully offloaded, and RPC-library offload (the SmartNIC/xPU idea
// the paper argues is lower-value).
#include "bench/bench_util.h"

namespace rpcscope {
namespace {

double TaxWith(const FleetContext& ctx, bool drop_compression, bool drop_rpclib,
               std::array<double, kNumTaxCategories>* fractions) {
  FleetSampler sampler = ctx.MakeSampler(7);
  ProfileCollector profile;
  for (int64_t i = 0; i < 800000; ++i) {
    SampledRpc rpc = sampler.Sample();
    if (drop_compression) {
      rpc.cycles[CycleCategory::kCompression] = 0;
    }
    if (drop_rpclib) {
      rpc.cycles[CycleCategory::kRpcLibrary] = 0;
    }
    profile.AddRpcSample(rpc.span.service_id, rpc.cycles, rpc.machine_speed);
  }
  if (fractions != nullptr) {
    *fractions = profile.TaxCategoryFractions();
  }
  return profile.TaxFraction();
}

}  // namespace
}  // namespace rpcscope

int main(int argc, char** argv) {
  using namespace rpcscope;
  const FleetContext ctx;
  std::array<double, kNumTaxCategories> base_fractions{};
  const double base = TaxWith(ctx, false, false, &base_fractions);
  const double no_compression = TaxWith(ctx, true, false, nullptr);
  const double no_rpclib = TaxWith(ctx, false, true, nullptr);

  FigureReport report;
  report.id = "ablation_compression";
  report.title = "Ablation: which stack component is worth an accelerator?";
  TextTable t({"scenario", "fleet cycle tax", "tax cycles saved"});
  t.AddRow({"software baseline", FormatPercent(base, 2), "-"});
  t.AddRow({"compression offloaded (Chiosa-style accelerator)",
            FormatPercent(no_compression, 2),
            FormatPercent((base - no_compression) / base, 1) + " of the tax"});
  t.AddRow({"RPC library offloaded (SmartNIC/xPU)", FormatPercent(no_rpclib, 2),
            FormatPercent((base - no_rpclib) / base, 1) + " of the tax"});
  report.tables.push_back(t);
  report.notes.push_back(
      "Compression offload removes ~" +
      FormatPercent(base_fractions[static_cast<size_t>(CycleCategory::kCompression)], 2) +
      " of all fleet cycles vs ~" +
      FormatPercent(base_fractions[static_cast<size_t>(CycleCategory::kRpcLibrary)], 2) +
      " for an RPC-library offload — the paper's conclusion that accelerating the RPC "
      "library alone 'may not provide the highest value' (§5.3), made quantitative.");
  return RunFigureMain(argc, argv, report);
}
