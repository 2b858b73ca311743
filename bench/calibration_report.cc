// Calibration self-check: recomputes every DESIGN.md §4 anchor against the
// current model and reports pass / near / off verdicts. Run this after any
// change to the catalogs, cost model, or sampler to see what drifted. Exits 1
// when any anchor is off: outside its band ("OFF "), or not measurable because
// its target or measurement is not positive ("off ").
#include <cmath>

#include "bench/bench_util.h"
#include "src/common/stats.h"

namespace rpcscope {
namespace {

struct Check {
  const char* anchor;
  double target;
  double measured;
  // An anchor "passes" within this multiplicative band around the target.
  double band = 2.0;
};

const char* Verdict(const Check& c) {
  if (c.target <= 0 || c.measured <= 0) {
    return "off ";
  }
  const double ratio = c.measured / c.target;
  if (ratio >= 1.0 / 1.3 && ratio <= 1.3) {
    return "PASS";
  }
  if (ratio >= 1.0 / c.band && ratio <= c.band) {
    return "near";
  }
  return "OFF ";
}

}  // namespace
}  // namespace rpcscope

int main(int argc, char** argv) {
  using namespace rpcscope;
  const FleetContext ctx;
  const FleetScan strat = StratifiedScan(ctx, 250);
  const FleetScan weighted = WeightedScan(ctx, 1500000);

  auto qq = [&](double method_q, auto extract) {
    const std::vector<double> v = strat.agg.CollectSorted(100, extract);
    return SortedQuantile(v, method_q);
  };
  auto rct = [](double q) {
    return [q](const MethodAccum& m) { return m.rct.Quantile(q); };
  };
  auto queue = [](double q) {
    return [q](const MethodAccum& m) { return m.queue.Quantile(q); };
  };

  std::vector<Check> checks;
  // Fig. 2.
  checks.push_back({"fig02 P1 @90th-pct method (us)", 657, qq(0.90, rct(0.01))});
  checks.push_back({"fig02 median @10th-pct method (us)", 10700, qq(0.10, rct(0.5))});
  checks.push_back({"fig02 P99 @median method (us)", 225000, qq(0.50, rct(0.99)), 3.0});
  // Fig. 3.
  double total_calls = 0, fastest100 = 0, write_share = 0;
  {
    const auto& methods = weighted.agg.methods();
    for (size_t i = 0; i < methods.size(); ++i) {
      total_calls += static_cast<double>(methods[i].calls);
      if (i < 100) {
        fastest100 += static_cast<double>(methods[i].calls);
      }
    }
    write_share = static_cast<double>(
                      methods[static_cast<size_t>(ctx.methods.network_disk_write_id())].calls) /
                  total_calls;
  }
  checks.push_back({"fig03 ND Write call share", 0.28, write_share, 1.3});
  checks.push_back({"fig03 fastest-100 call share", 0.40, fastest100 / total_calls, 1.5});
  // Fig. 13.
  checks.push_back({"fig13 median queue @median method (us)", 360, qq(0.50, queue(0.5))});
  checks.push_back({"fig13 P99 queue @median method (us)", 102000, qq(0.50, queue(0.99)), 3.0});
  // Fig. 20.
  checks.push_back({"fig20 cycle tax fraction", 0.071, weighted.profile.TaxFraction(), 1.8});
  const auto fractions = weighted.profile.TaxCategoryFractions();
  checks.push_back({"fig20 compression fraction", 0.031,
                    fractions[static_cast<size_t>(CycleCategory::kCompression)], 1.8});
  checks.push_back({"fig20 rpclib fraction", 0.011,
                    fractions[static_cast<size_t>(CycleCategory::kRpcLibrary)], 1.8});
  // Fig. 23.
  double errors = 0;
  for (const auto& [code, count] : weighted.error_counts) {
    errors += static_cast<double>(count);
  }
  checks.push_back({"fig23 error rate", 0.019,
                    errors / static_cast<double>(weighted.total_calls), 1.6});
  checks.push_back(
      {"fig23 cancelled share of errors", 0.45,
       static_cast<double>(weighted.error_counts.at(StatusCode::kCancelled)) / errors, 1.4});

  FigureReport report;
  report.id = "calibration";
  report.title = "Calibration self-check (DESIGN.md section 4 anchors)";
  TextTable t({"verdict", "anchor", "target", "measured", "ratio"});
  int off = 0;
  for (const Check& c : checks) {
    const char* verdict = Verdict(c);
    if (verdict[0] == 'O' || verdict[0] == 'o') {
      ++off;
    }
    t.AddRow({verdict, c.anchor, FormatDouble(c.target, 4), FormatDouble(c.measured, 4),
              FormatDouble(c.measured / c.target, 2) + "x"});
  }
  report.tables.push_back(t);
  report.notes.push_back(off == 0 ? "all anchors within their bands"
                                  : std::to_string(off) + " anchor(s) OFF — see rows above");
  const int rc = RunFigureMain(argc, argv, report);
  return off > 0 ? 1 : rc;
}
